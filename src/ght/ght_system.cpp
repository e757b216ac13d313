#include "ght/ght_system.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <queue>
#include <utility>

#include "common/error.h"

namespace poolnet::ght {

using storage::Event;
using storage::InsertReceipt;
using storage::QueryReceipt;
using storage::RangeQuery;

namespace {
std::uint64_t mix(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<Event> all_events(const storage::column::ColumnStore& cs) {
  std::vector<Event> out;
  out.reserve(cs.size());
  cs.for_each([&](std::size_t row) { out.push_back(cs.event_at(row)); });
  return out;
}
}  // namespace

GhtSystem::GhtSystem(net::Network& network,
                     const routing::Router& router, std::size_t dims,
                     GhtConfig config)
    : net_(network),
      dims_(dims),
      config_(config),
      legs_(network, router, dims, *this, fault_stats_) {
  if (dims == 0 || dims > storage::kMaxDims)
    throw ConfigError("GHT: bad dimensionality");
  if (config.quantum <= 0.0 || config.quantum > 1.0)
    throw ConfigError("GHT: quantum must be in (0,1]");
  store_.assign(network.size(), storage::column::ColumnStore(dims));
  for (auto& cs : store_) cs.set_stats(&scan_stats_);
}

std::string GhtSystem::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "GHT (dims=%zu, quantum=%g)", dims_,
                config_.quantum);
  return buf;
}

std::uint64_t GhtSystem::key_of(const storage::Values& values) const {
  std::uint64_t key = config_.hash_seed;
  for (std::size_t d = 0; d < values.size(); ++d) {
    double v = values[d];
    if (v >= 1.0) v = 1.0 - 1e-12;
    const auto bucket =
        static_cast<std::uint64_t>(std::floor(v / config_.quantum));
    key = mix(key ^ (bucket + 0x9e3779b97f4a7c15ULL * (d + 1)));
  }
  return key;
}

Point GhtSystem::location_of(std::uint64_t key) const {
  const Rect& f = net_.field();
  const double u = static_cast<double>(mix(key) >> 11) * 0x1.0p-53;
  const double v = static_cast<double>(mix(key ^ 0xabcdef0123456789ULL) >> 11) *
                   0x1.0p-53;
  return {f.min_x + u * f.width(), f.min_y + v * f.height()};
}

net::NodeId GhtSystem::home_node(const storage::Values& values) const {
  const std::uint64_t key = key_of(values);
  const auto [it, fresh] = home_cache_.try_emplace(key, net::kNoNode);
  if (fresh) it->second = net_.nearest_alive_node(location_of(key));
  return it->second;
}

void GhtSystem::handle_node_failure(net::NodeId dead) {
  if (dead >= net_.size()) return;
  if (known_dead_.empty()) known_dead_.assign(net_.size(), 0);
  if (known_dead_[dead]) return;
  known_dead_[dead] = 1;

  // GHT keeps one copy per key: whatever the dead home held is gone.
  auto& events = store_[dead];
  if (!events.empty()) {
    fault_stats_.events_lost += events.size();
    stored_count_ -= events.size();
    net_.node_mut(dead).stored_events -= events.size();
    events.clear();
  }
  // Forget every cached home at the dead node; the next use of each key
  // re-walks to the nearest survivor.
  for (auto it = home_cache_.begin(); it != home_cache_.end();) {
    if (it->second == dead) {
      it = home_cache_.erase(it);
      ++fault_stats_.failovers;
    } else {
      ++it;
    }
  }
}

InsertReceipt GhtSystem::insert(net::NodeId source, const Event& event) {
  storage::validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("GHT: event dimensionality mismatch");

  const auto before = net_.traffic().total;
  InsertReceipt receipt;
  // A failed delivery evicts the dead home from the cache; the retry goes
  // to the re-homed survivor. kNoNode: nobody left to store at.
  const net::NodeId home = legs_.send_resolved(
      source, [&] { return home_node(event.values); },
      net::MessageKind::Insert, net_.sizes().event_bits(dims_));
  receipt.messages = net_.traffic().total - before;
  if (home == net::kNoNode) {
    ++fault_stats_.events_lost;
    return receipt;
  }

  store_[home].append(event);
  ++stored_count_;
  ++net_.node_mut(home).stored_events;
  receipt.stored_at = home;
  return receipt;
}

std::size_t GhtSystem::charge_flood(net::NodeId sink) {
  // BFS broadcast: every reached node rebroadcasts exactly once, so each
  // tree edge is one Query transmission. (Real floods cost MORE — every
  // node transmits regardless of tree membership — so this undercounts in
  // GHT's favor; Pool still wins by orders of magnitude.)
  std::vector<char> seen(net_.size(), 0);
  std::queue<net::NodeId> frontier;
  if (!net_.alive(sink)) return 0;
  frontier.push(sink);
  seen[sink] = 1;
  std::size_t reached = 1;
  const auto bits = net_.sizes().query_bits(dims_);
  while (!frontier.empty()) {
    const net::NodeId u = frontier.front();
    frontier.pop();
    for (const net::NodeId v : net_.neighbors(u)) {
      if (seen[v]) continue;
      // Broadcasts are unacked: a dead neighbor simply never rebroadcasts,
      // so the flood routes around it without charging extra attempts.
      if (!net_.alive(v)) continue;
      seen[v] = 1;
      net_.transmit(u, v, net::MessageKind::Query, bits);
      frontier.push(v);
      ++reached;
    }
  }
  return reached;
}

template <typename Select, typename Accept>
std::size_t GhtSystem::flood_collect(net::NodeId sink, bool partial,
                                     storage::ResultReceipt& receipt,
                                     Select&& select, Accept&& accept) {
  const std::size_t reached = charge_flood(sink);
  for (net::NodeId n = 0; n < net_.size(); ++n) {
    if (store_[n].empty()) continue;
    if (!net_.alive(n)) {
      // The flood just exposed a silently-dead holder: absorb the loss
      // so no later query fabricates answers from destroyed storage.
      handle_node_failure(n);
      continue;
    }
    const std::uint64_t found = select(store_[n]);
    if (found == 0) continue;
    ++receipt.index_nodes_visited;
    if (partial ? legs_.reply_partial(n, sink) : legs_.reply(n, sink, found))
      accept();
  }
  return reached;
}

QueryReceipt GhtSystem::query(net::NodeId sink, const RangeQuery& q) {
  return batch_of_one(sink, q);
}

QueryReceipt GhtSystem::skyline(net::NodeId sink,
                                const storage::SkylineQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("GHT: skyline dimensionality mismatch");

  QueryReceipt receipt;
  const auto before = net_.traffic();
  // Value hashing scatters dominance-adjacent events across the whole
  // network, so there is nothing to prune toward: flood, then every
  // holder replies with its LOCAL skyline (an event dominated at its own
  // home is dominated globally) and the sink merges.
  std::vector<Event> local;
  flood_collect(
      sink, false, receipt,
      [&](const storage::column::ColumnStore& cs) {
        local = all_events(cs);
        storage::skyline_filter(q, local);
        return local.size();
      },
      [&] {
        receipt.events.insert(receipt.events.end(), local.begin(),
                              local.end());
      });
  storage::skyline_filter(q, receipt.events);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt GhtSystem::k_nearest(net::NodeId sink,
                                  const storage::KNearestQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("GHT: k-NN target dimensionality mismatch");
  if (q.initial_radius < 0.0)
    throw ConfigError("GHT: k-NN initial radius must be positive");

  QueryReceipt receipt;
  const auto before = net_.traffic();
  // No distance locality either: nearby values hash to unrelated homes,
  // so an expanding ring cannot be routed. One flood; each holder
  // replies with its local top-k and the sink keeps the best k.
  receipt.rounds = 1;
  std::vector<Event> local;
  flood_collect(
      sink, false, receipt,
      [&](const storage::column::ColumnStore& cs) {
        local = all_events(cs);
        storage::knn_filter(q, local);
        return local.size();
      },
      [&] {
        receipt.events.insert(receipt.events.end(), local.begin(),
                              local.end());
        storage::knn_filter(q, receipt.events);  // running top-k
      });
  storage::knn_filter(q, receipt.events);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

storage::AggregateReceipt GhtSystem::aggregate(net::NodeId sink,
                                               const RangeQuery& q,
                                               storage::AggregateKind kind,
                                               std::size_t value_dim) {
  if (q.dims() != dims_)
    throw ConfigError("GHT: query dimensionality mismatch");
  if (value_dim >= dims_)
    throw ConfigError("GHT: aggregate dimension out of range");

  storage::AggregateReceipt receipt;
  const auto before = net_.traffic();
  // Aggregates have the same locality problem as ranges: flood, and each
  // holder sends one fixed-size partial home; it only joins the aggregate
  // if its leg delivers.
  storage::PartialAggregate total, partial;
  flood_collect(
      sink, true, receipt,
      [&](const storage::column::ColumnStore& cs) {
        partial = {};
        cs.scan(q, false, [&](std::size_t row) {
          partial.add(cs.value_at(row, value_dim));
        });
        return partial.empty() ? 0 : 1;
      },
      [&] { total.merge(partial); });
  receipt.result = total.finalize(kind);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

storage::BatchQueryReceipt GhtSystem::query_batch(
    net::NodeId sink, const std::vector<RangeQuery>& queries) {
  for (const RangeQuery& q : queries)
    if (q.dims() != dims_)
      throw ConfigError("GHT: query dimensionality mismatch");

  storage::BatchQueryReceipt batch;
  batch.per_query.resize(queries.size());
  const auto mark = legs_.mark();
  const auto& sizes = net_.sizes();
  std::uint64_t serial_cost = 0;

  // A holder serves every member with one column-kernel scan each; a
  // bitmap counts the distinct rows any member matched, which is what
  // travels back.
  std::vector<std::vector<Event>> found(queries.size());  // this holder
  std::vector<char> answered;                             // this holder, per row
  const auto collect = [&](const storage::column::ColumnStore& cs,
                           const std::vector<std::size_t>& members) {
    answered.assign(cs.size(), 0);
    std::uint64_t distinct = 0;
    for (const std::size_t m : members) {
      found[m].clear();
      cs.scan(queries[m], false, [&](std::size_t row) {
        found[m].push_back(cs.event_at(row));
        if (!std::exchange(answered[row], 1)) ++distinct;
      });
    }
    return distinct;
  };
  // Once the holder's reply arrives its members' events join their
  // results; serial issue would have sent each member its own batches.
  const auto deliver = [&](const std::vector<std::size_t>& members) {
    for (const std::size_t m : members) {
      if (found[m].empty()) continue;
      serial_cost += sizes.reply_batches(found[m].size()) * legs_.route().hops();
      auto& events = batch.per_query[m].events;
      events.insert(events.end(), found[m].begin(), found[m].end());
    }
  };

  // Point queries hash to their home node; probes to a home this batch
  // already reached join its group. A dead home is evicted by failover
  // and the probe retries once toward the re-homed survivor.
  struct HomeGroup {
    net::NodeId home;
    std::uint64_t hops;  ///< of the probe that reached it
    std::vector<std::size_t> members;
  };
  std::vector<HomeGroup> groups;
  const auto group_at = [&](net::NodeId home) {
    return std::find_if(groups.begin(), groups.end(),
                        [&](const HomeGroup& g) { return g.home == home; });
  };
  std::vector<std::size_t> floods;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    if (queries[qi].type() != storage::QueryType::ExactMatchPoint) {
      floods.push_back(qi);
      continue;
    }
    storage::Values point;
    for (std::size_t d = 0; d < dims_; ++d)
      point.push_back(queries[qi].bound(d).lo);
    auto g = group_at(home_node(point));
    if (g == groups.end()) {
      const net::NodeId home = legs_.send_resolved(
          sink, [&] { return home_node(point); }, net::MessageKind::Query,
          sizes.query_bits(dims_));
      if (home == net::kNoNode) continue;
      g = group_at(home);
      if (g == groups.end())
        g = groups.insert(g, {home, legs_.route().hops(), {}});
    }
    serial_cost += g->hops;
    g->members.push_back(qi);
  }
  for (const HomeGroup& g : groups) {
    ++batch.unique_cell_visits;
    ++batch.index_nodes_visited;
    batch.serial_cell_visits += g.members.size();
    for (const std::size_t qi : g.members)
      batch.per_query[qi].index_nodes_visited = 1;
    const std::uint64_t distinct = collect(store_[g.home], g.members);
    if (distinct == 0 || legs_.reply(g.home, sink, distinct)) deliver(g.members);
  }

  // Range/partial queries: one flood serves every member — serial
  // execution floods once PER query, the dominant saving here.
  if (!floods.empty()) {
    const std::size_t reached = flood_collect(
        sink, false, batch,
        [&](const storage::column::ColumnStore& cs) {
          const std::uint64_t distinct = collect(cs, floods);
          for (const std::size_t m : floods)
            if (!found[m].empty()) ++batch.per_query[m].index_nodes_visited;
          batch.serial_cell_visits += floods.size();
          ++batch.unique_cell_visits;
          return distinct;
        },
        [&] { deliver(floods); });
    if (reached > 0) serial_cost += floods.size() * (reached - 1);
  }

  legs_.settle(mark, serial_cost, batch);
  return batch;
}

std::size_t GhtSystem::expire_before(double cutoff) {
  std::size_t removed = 0;
  for (net::NodeId n = 0; n < net_.size(); ++n) {
    const auto gone = store_[n].expire_before(cutoff);
    if (gone > 0) {
      removed += gone;
      net_.node_mut(n).stored_events -= gone;
    }
  }
  stored_count_ -= removed;
  return removed;
}

}  // namespace poolnet::ght
