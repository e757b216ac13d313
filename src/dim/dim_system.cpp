#include "dim/dim_system.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "common/error.h"

namespace poolnet::dim {

using storage::Event;
using storage::InsertReceipt;
using storage::QueryReceipt;
using storage::RangeQuery;

DimSystem::DimSystem(net::Network& network,
                     const routing::Router& router, std::size_t dims)
    : net_(network),
      legs_(network, router, dims, *this, fault_stats_),
      tree_(network, dims),
      store_(tree_.size(), storage::column::ColumnStore(dims)),
      rep_cache_(tree_.size(), net::kNoNode) {
  for (auto& cs : store_) cs.set_stats(&scan_stats_);
}

std::string DimSystem::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "DIM (dims=%zu, zones=%zu)", tree_.dims(),
                tree_.leaf_count());
  return buf;
}

net::NodeId DimSystem::representative(ZoneIndex zidx) const {
  net::NodeId& memo = rep_cache_[zidx];
  if (memo == net::kNoNode) {
    const ZoneNode& z = tree_.zone(zidx);
    memo = z.is_leaf() ? z.owner : net_.nearest_alive_node(z.region.center());
  }
  return memo;
}

void DimSystem::handle_node_failure(net::NodeId dead) {
  if (dead >= net_.size()) return;
  if (known_dead_.empty()) known_dead_.assign(net_.size(), 0);
  if (known_dead_[dead]) return;
  known_dead_[dead] = 1;

  // Forget every cached representative that points at the dead node:
  // internal zones re-elect the nearest survivor, leaves re-read their
  // (possibly reassigned) owner on the next lookup.
  for (net::NodeId& memo : rep_cache_)
    if (memo == dead) memo = net::kNoNode;

  for (const ZoneIndex leaf : tree_.leaves()) {
    if (tree_.zone(leaf).owner != dead) continue;
    auto& events = store_[leaf];
    if (!events.empty()) {
      // DIM keeps a single copy per event, so storage that was resident
      // at the dead owner is gone for good.
      fault_stats_.events_lost += events.size();
      stored_count_ -= events.size();
      net_.node_mut(dead).stored_events -= events.size();
      events.clear();
    }
    // Zone-tree neighbor adoption; kNoNode when nobody survives at all.
    tree_.reassign_leaf(leaf, tree_.adopting_neighbor(leaf, net_));
    ++fault_stats_.failovers;
  }
}

InsertReceipt DimSystem::insert(net::NodeId source, const Event& event) {
  storage::validate_event(event);
  if (event.dims() != dims())
    throw ConfigError("DIM: event dimensionality mismatch");

  const ZoneIndex leaf = tree_.leaf_for_event(event);
  const auto before = net_.traffic().total;
  InsertReceipt receipt;
  // A failed delivery triggers failover; the retry goes to the zone's
  // adopted owner. kNoNode: every candidate owner is dead.
  const net::NodeId owner = legs_.send_resolved(
      source, [&] { return tree_.zone(leaf).owner; }, net::MessageKind::Insert,
      net_.sizes().event_bits(dims()));
  receipt.messages = net_.traffic().total - before;
  if (owner == net::kNoNode) {
    ++fault_stats_.events_lost;
    return receipt;
  }

  store_[leaf].append(event);
  ++stored_count_;
  ++net_.node_mut(owner).stored_events;
  receipt.stored_at = owner;
  return receipt;
}

namespace {
/// Members of a merged walk carried into one zone by one node.
struct Flight {
  net::NodeId carrier;
  std::vector<std::uint32_t> members;
};

/// Adds `members` to the flight `carrier` holds in `flights`, opening it
/// when this is the carrier's first arrival.
void board(std::vector<Flight>& flights, net::NodeId carrier,
           std::vector<std::uint32_t>&& members) {
  for (Flight& f : flights) {
    if (f.carrier != carrier) continue;
    f.members.insert(f.members.end(), members.begin(), members.end());
    return;
  }
  flights.push_back({carrier, std::move(members)});
}
}  // namespace

template <typename LeafFn>
std::uint64_t DimSystem::disseminate(net::NodeId sink,
                                     const std::vector<RangeQuery>& qs,
                                     LeafFn&& on_leaf) {
  const std::uint64_t qbits = net_.sizes().query_bits(dims());
  std::uint64_t serial = 0;
  // One reliable leg for every member of `members`: failover re-elects a
  // dead target and the leg retries once. Serial issue pays it per member.
  const auto fly = [&](net::NodeId from, auto&& resolve, net::MessageKind kind,
                       std::vector<std::uint32_t>&& members,
                       std::vector<Flight>& into) {
    const net::NodeId to = legs_.send_resolved(from, resolve, kind, qbits);
    if (to == net::kNoNode) return;  // the branch is cut for these members
    serial += members.size() * legs_.route().hops();
    board(into, to, std::move(members));
  };

  // Each member is first addressed to the deepest zone enclosing it.
  std::vector<ZoneIndex> start(qs.size());
  std::vector<std::uint32_t> routable;
  for (std::uint32_t m = 0; m < qs.size(); ++m) {
    start[m] = tree_.enclosing_zone(qs[m]);
    if (ZoneTree::zone_intersects(tree_.zone(start[m]), qs[m]))
      routable.push_back(m);
  }

  // Depth-first, lower child first — each member's own serial order.
  // `flights` are the members already walking into `zidx`; `pending`
  // those whose enclosing zone lies at or below it.
  const auto descend = [&](auto& self, ZoneIndex zidx,
                           std::vector<Flight> flights,
                           std::vector<std::uint32_t> pending) -> void {
    const ZoneNode& z = tree_.zone(zidx);
    std::vector<std::uint32_t> entering, below;
    for (const std::uint32_t m : pending)
      (start[m] == zidx ? entering : below).push_back(m);
    if (!entering.empty())
      fly(sink, [&] { return representative(zidx); }, net::MessageKind::Query,
          std::move(entering), flights);

    if (z.is_leaf()) {
      // Final leg to the zone owner. A failed leg runs failover, which
      // rewrites the owner in place — resolve it through the tree.
      std::vector<Flight> at_owner;
      for (Flight& f : flights)
        fly(f.carrier, [&] { return tree_.zone(zidx).owner; },
            net::MessageKind::SubQuery, std::move(f.members), at_owner);
      std::vector<std::uint32_t> served;
      for (const Flight& f : at_owner)
        served.insert(served.end(), f.members.begin(), f.members.end());
      if (!served.empty()) on_leaf(zidx, served);
      return;
    }

    for (const ZoneIndex child : {z.lower, z.upper}) {
      // A member whose query overlaps both children splits here: one
      // subquery to the child's representative, shared by every member
      // of the flight that splits. One that overlaps only this child
      // stays with its carrier.
      std::vector<Flight> next;
      for (const Flight& f : flights) {
        std::vector<std::uint32_t> split, through;
        for (const std::uint32_t m : f.members) {
          const bool lower_hit =
              ZoneTree::zone_intersects(tree_.zone(z.lower), qs[m]);
          const bool upper_hit =
              ZoneTree::zone_intersects(tree_.zone(z.upper), qs[m]);
          if (lower_hit && upper_hit) {
            split.push_back(m);
          } else if (child == z.lower ? lower_hit : upper_hit) {
            through.push_back(m);
          }
        }
        if (!split.empty())
          fly(f.carrier, [&] { return representative(child); },
              net::MessageKind::SubQuery, std::move(split), next);
        if (!through.empty()) board(next, f.carrier, std::move(through));
      }
      std::vector<std::uint32_t> down;
      for (const std::uint32_t m : below)
        if (tree_.zone(child).code.prefix_of(tree_.zone(start[m]).code))
          down.push_back(m);
      if (!next.empty() || !down.empty())
        self(self, child, std::move(next), std::move(down));
    }
  };
  if (!routable.empty())
    descend(descend, tree_.root(), {}, std::move(routable));
  return serial;
}

QueryReceipt DimSystem::query(net::NodeId sink, const RangeQuery& q) {
  return batch_of_one(sink, q);
}

storage::AggregateReceipt DimSystem::aggregate(net::NodeId sink,
                                               const RangeQuery& q,
                                               storage::AggregateKind kind,
                                               std::size_t value_dim) {
  if (q.dims() != dims())
    throw ConfigError("DIM: query dimensionality mismatch");
  if (value_dim >= dims())
    throw ConfigError("DIM: aggregate dimension out of range");

  storage::AggregateReceipt receipt;
  const auto before = net_.traffic();
  storage::PartialAggregate total;
  disseminate(sink, {q}, [&](ZoneIndex leaf, const auto&) {
    ++receipt.index_nodes_visited;
    storage::PartialAggregate partial;
    const auto& cs = store_[leaf];
    cs.scan(q, false, [&](std::size_t row) {
      partial.add(cs.value_at(row, value_dim));
    });
    // One fixed-size partial straight to the sink; it only joins the
    // aggregate if the leg actually delivers.
    if (!partial.empty() &&
        legs_.reply_partial(tree_.zone(leaf).owner, sink))
      total.merge(partial);
  });
  receipt.result = total.finalize(kind);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

template <typename Reduce>
bool DimSystem::visit_owner(net::NodeId sink, ZoneIndex leaf, Reduce&& reduce,
                            std::vector<Event>& local,
                            storage::ResultReceipt& receipt) {
  // The sink addresses the leaf's owner directly (the zone tree is global
  // knowledge, like insert's event-to-zone addressing); failover may hand
  // the zone to an adopter, so the leg retries once toward it.
  const net::NodeId owner = legs_.send_resolved(
      sink, [&] { return tree_.zone(leaf).owner; }, net::MessageKind::Query,
      net_.sizes().query_bits(dims()));
  if (owner == net::kNoNode) return false;
  ++receipt.index_nodes_visited;
  local = zone_store(leaf);
  reduce(local);
  return !local.empty() && legs_.reply(owner, sink, local.size());
}

QueryReceipt DimSystem::skyline(net::NodeId sink,
                                const storage::SkylineQuery& q) {
  if (q.dims() != dims())
    throw ConfigError("DIM: skyline dimensionality mismatch");

  QueryReceipt receipt;
  const auto before = net_.traffic();

  // The zone code fixes every leaf's value-range box, so the sink knows
  // each zone's best possible point — the top of its box — without a
  // single message. Visit leaves best-corner-first; collected skyline
  // points then veto later (worse-cornered) zones outright.
  struct Candidate {
    double key;  ///< Σ corner over selected attrs (descending visit order)
    ZoneIndex leaf;
    storage::Values corner;
  };
  std::vector<Candidate> cands;
  cands.reserve(tree_.leaf_count());
  for (const ZoneIndex leaf : tree_.leaves()) {
    const ZoneNode& z = tree_.zone(leaf);
    Candidate c{0.0, leaf, {}};
    for (std::size_t d = 0; d < dims(); ++d) {
      c.corner.push_back(z.ranges[d].hi);
      if (q.on(d)) c.key += z.ranges[d].hi;
    }
    cands.push_back(std::move(c));
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.key != b.key) return a.key > b.key;
              return a.leaf < b.leaf;
            });

  std::vector<Event> collected, local;
  for (const Candidate& c : cands) {
    // A zone whose corner is dominated can only hold dominated events
    // (strictness against the corner carries down to every event at or
    // below it) — prune it before any transmission.
    if (!storage::skyline_admits(q, collected, c.corner)) continue;
    // The owner replies with its LOCAL skyline — an event dominated within
    // its own zone is dominated globally.
    if (!visit_owner(
            sink, c.leaf,
            [&](std::vector<Event>& v) { storage::skyline_filter(q, v); },
            local, receipt))
      continue;
    for (Event& e : local)
      if (storage::skyline_admits(q, collected, e.values))
        collected.push_back(std::move(e));
  }

  storage::skyline_filter(q, collected);
  receipt.events = std::move(collected);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt DimSystem::k_nearest(net::NodeId sink,
                                  const storage::KNearestQuery& q) {
  if (q.dims() != dims())
    throw ConfigError("DIM: k-NN target dimensionality mismatch");
  if (q.initial_radius < 0.0)
    throw ConfigError("DIM: k-NN initial radius must be positive");

  QueryReceipt receipt;
  const auto before = net_.traffic();
  std::vector<char> visited(tree_.size(), 0);  // by leaf ZoneIndex
  std::vector<Event> cand, local;

  double radius = q.initial_radius > 0.0 ? q.initial_radius : 0.05;
  while (true) {
    ++receipt.rounds;
    const RangeQuery box = storage::box_around(q.target, radius);

    for (const ZoneIndex leaf : tree_.leaves_overlapping(box)) {
      if (std::exchange(visited[leaf], 1)) continue;
      // The owner answers with its local top-k, box or not — the box
      // only picks WHICH zones to visit, so a visited zone never needs
      // re-querying when the ring later grows.
      if (!visit_owner(
              sink, leaf,
              [&](std::vector<Event>& v) { storage::knn_filter(q, v); },
              local, receipt))
        continue;
      for (Event& e : local) cand.push_back(std::move(e));
      storage::knn_filter(q, cand);  // sink keeps only the running top-k
    }

    // Complete when the k-th candidate lies within the proven-covered
    // radius, or the box already spans the whole value space.
    if (cand.size() >= q.k &&
        std::sqrt(storage::knn_kth_distance2(q, cand)) <= radius)
      break;
    if (radius >= 1.0) break;  // whole space searched
    radius = std::min(1.0, radius * 2.0);
  }

  storage::knn_filter(q, cand);
  receipt.events = std::move(cand);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

storage::BatchQueryReceipt DimSystem::query_batch(
    net::NodeId sink, const std::vector<RangeQuery>& queries) {
  for (const RangeQuery& q : queries)
    if (q.dims() != dims())
      throw ConfigError("DIM: query dimensionality mismatch");

  storage::BatchQueryReceipt batch;
  batch.per_query.resize(queries.size());
  const auto mark = legs_.mark();
  const auto& sizes = net_.sizes();
  std::uint64_t serial_replies = 0;
  std::vector<std::vector<Event>> found(queries.size());  // this leaf
  std::vector<char> answered;                             // this leaf, per row
  const std::uint64_t serial_forwarding = disseminate(
      sink, queries,
      [&](ZoneIndex leaf, const std::vector<std::uint32_t>& served) {
        const auto& cs = store_[leaf];
        ++batch.index_nodes_visited;
        answered.assign(cs.size(), 0);
        std::uint64_t distinct = 0;
        for (const std::uint32_t m : served) {
          ++batch.per_query[m].index_nodes_visited;
          found[m].clear();
          cs.scan(queries[m], false, [&](std::size_t row) {
            found[m].push_back(cs.event_at(row));
            if (!std::exchange(answered[row], 1)) ++distinct;
          });
        }
        // The owner replies once with the distinct rows of every asker.
        // Answers only count once they actually reach the sink — a reply
        // leg that dies en route must show up as recall loss, not data.
        if (distinct > 0 && !legs_.reply(tree_.zone(leaf).owner, sink, distinct))
          return;
        for (const std::uint32_t m : served) {
          if (found[m].empty()) continue;
          serial_replies +=
              sizes.reply_batches(found[m].size()) * legs_.route().hops();
          auto& events = batch.per_query[m].events;
          events.insert(events.end(), found[m].begin(), found[m].end());
        }
      });
  batch.unique_cell_visits = batch.index_nodes_visited;
  for (const auto& r : batch.per_query)
    batch.serial_cell_visits += r.index_nodes_visited;
  legs_.settle(mark, serial_forwarding + serial_replies, batch);
  return batch;
}

std::size_t DimSystem::expire_before(double cutoff) {
  std::size_t removed = 0;
  for (const ZoneIndex leaf : tree_.leaves()) {
    const auto gone = store_[leaf].expire_before(cutoff);
    if (gone > 0) {
      removed += gone;
      const net::NodeId owner = tree_.zone(leaf).owner;
      if (owner != net::kNoNode) net_.node_mut(owner).stored_events -= gone;
    }
  }
  stored_count_ -= removed;
  return removed;
}

std::vector<Event> DimSystem::zone_store(ZoneIndex leaf) const {
  POOLNET_ASSERT(leaf < store_.size());
  std::vector<Event> out;
  const auto& cs = store_[leaf];
  out.reserve(cs.size());
  cs.for_each([&](std::size_t row) { out.push_back(cs.event_at(row)); });
  return out;
}

}  // namespace poolnet::dim
