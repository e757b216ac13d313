#include "core/pool_system.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "common/error.h"

namespace poolnet::core {

using storage::Event;
using storage::InsertReceipt;
using storage::QueryReceipt;
using storage::RangeQuery;

namespace {
PoolLayout make_random_layout(const Grid& grid, std::size_t dims,
                              const PoolConfig& config) {
  Rng rng(config.layout_seed);
  return PoolLayout::random(grid, dims, config.side, rng);
}

/// Drops from events[from..] every primary event of `cell` that
/// `delegate` holds (its reply to the index node was lost).
void drop_held_by(const storage::column::ColumnStore& cell,
                  net::NodeId delegate, std::vector<Event>& events,
                  std::size_t from) {
  std::vector<std::uint64_t> lost;
  for (std::uint32_t row = 0; row < cell.size(); ++row)
    if (cell.holder_at(row) == delegate && !cell.replica_at(row))
      lost.push_back(cell.id_at(row));
  std::sort(lost.begin(), lost.end());
  const auto first = events.begin() + static_cast<std::ptrdiff_t>(from);
  events.erase(std::remove_if(first, events.end(),
                              [&](const Event& e) {
                                return std::binary_search(lost.begin(),
                                                          lost.end(), e.id);
                              }),
               events.end());
}
}  // namespace

PoolSystem::PoolSystem(net::Network& network,
                       const routing::Router& router, std::size_t dims,
                       PoolConfig config)
    : PoolSystem(network, router, dims, config,
                 make_random_layout(Grid(network, config.cell_size), dims,
                                    config)) {}

PoolSystem::PoolSystem(net::Network& network,
                       const routing::Router& router, std::size_t dims,
                       PoolConfig config, PoolLayout layout)
    : net_(network),
      router_(router),
      dims_(dims),
      config_(config),
      legs_(network, router, dims, *this, fault_stats_),
      grid_(network, config.cell_size),
      layout_(std::move(layout)) {
  if (dims == 0 || dims > storage::kMaxDims)
    throw ConfigError("PoolSystem: bad dimensionality");
  if (layout_.pool_count() != dims)
    throw ConfigError("PoolSystem: layout pool count != dims");
  if (layout_.side() != config_.side)
    throw ConfigError("PoolSystem: layout side != config side");
  if (config_.replicas >= dims_)
    throw ConfigError(
        "PoolSystem: replicas must be < dims (one rotated pool per mirror)");
  cells_.assign(dims * static_cast<std::size_t>(config_.side) * config_.side,
                storage::column::ColumnStore(dims, /*with_meta=*/true));
  for (auto& cell : cells_) cell.set_stats(&scan_stats_);
  cell_subs_.resize(cells_.size());
  splitter_cache_.assign(dims * net_.size(), net::kNoNode);

  if (config_.charge_dht_lookup) {
    pivot_cache_.assign(net_.size() * dims_, 0);
    // Publish each pivot record: its pool's pivot-cell index node writes
    // the record to the directory home (one Control unicast per pool).
    for (std::size_t p = 0; p < dims_; ++p) {
      const net::NodeId publisher = grid_.index_node(layout_.pivot(p));
      const net::NodeId home = directory_home(p);
      const auto leg = router_.route_to_node(publisher, home);
      net_.transmit_path(leg.path, net::MessageKind::Control,
                         net_.sizes().control_bits);
    }
  }
}

std::string PoolSystem::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "Pool (l=%u, alpha=%gm, dims=%zu, replicas=%u%s%s)",
                config_.side, config_.cell_size, dims_, config_.replicas,
                config_.workload_sharing ? ", sharing" : "",
                config_.charge_dht_lookup ? ", dht-pivots" : "");
  return buf;
}

net::NodeId PoolSystem::directory_home(std::size_t pool_dim) const {
  // GHT-style hash of the pool id to a field location.
  std::uint64_t z = 0x7f4a7c15u + pool_dim;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  const Rect& f = net_.field();
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  const double v =
      static_cast<double>((z * 0x9e3779b97f4a7c15ULL) >> 11) * 0x1.0p-53;
  return net_.nearest_node(
      {f.min_x + u * f.width(), f.min_y + v * f.height()});
}

void PoolSystem::charge_pivot_lookup(net::NodeId node, std::size_t pool_dim) {
  if (!config_.charge_dht_lookup) return;
  char& cached = pivot_cache_[node * dims_ + pool_dim];
  if (cached) return;
  cached = 1;
  const net::NodeId home = directory_home(pool_dim);
  router_.route_to_node_into(node, home, route_scratch_);
  net_.transmit_path(route_scratch_.path, net::MessageKind::Control,
                     net_.sizes().control_bits);
  router_.route_to_node_into(home, node, route_scratch_);
  net_.transmit_path(route_scratch_.path, net::MessageKind::Control,
                     net_.sizes().control_bits);
}

std::size_t PoolSystem::cell_key(std::size_t pool_dim,
                                 CellOffset offset) const {
  const std::size_t l = config_.side;
  POOLNET_ASSERT(pool_dim < dims_ && offset.ho < l && offset.vo < l);
  return (pool_dim * l + offset.vo) * l + offset.ho;
}

PoolSystem::CellChoice PoolSystem::choose_cell(net::NodeId source,
                                               const Event& event) const {
  const Point src_pos = net_.position(source);
  const auto candidates = event.max_dims();
  POOLNET_ASSERT(!candidates.empty());

  std::optional<CellChoice> best;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    const std::size_t d1 = candidates[c];
    const Placement pl = placement_for(event, d1);
    const CellOffset off = cell_for_values(pl.v_d1, pl.v_d2, config_.side);
    const CellCoord coord = layout_.cell(d1, off);
    const double d2 = distance_sq(grid_.cell_center(coord), src_pos);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = CellChoice{d1, off, coord, grid_.index_node(coord)};
    }
  }
  return *best;
}

net::NodeId PoolSystem::pick_delegate(net::NodeId index_node) const {
  // Least-loaded radio neighbor; the index node keeps serving when it has
  // no neighbors at all (disconnected corner case).
  net::NodeId best = net::kNoNode;
  std::uint64_t best_load = std::numeric_limits<std::uint64_t>::max();
  for (const net::NodeId nb : net_.neighbors(index_node)) {
    if (!net_.alive(nb)) continue;
    const std::uint64_t load = net_.node(nb).stored_events;
    if (load < best_load || (load == best_load && nb < best)) {
      best_load = load;
      best = nb;
    }
  }
  return best;
}

void PoolSystem::absorb_dead_holders(std::size_t key) {
  std::vector<net::NodeId> dead;
  const auto& cell = cells_[key];
  for (std::size_t row = 0; row < cell.size(); ++row) {
    const net::NodeId holder = cell.holder_at(row);
    if (net_.alive(holder)) continue;
    if (std::find(dead.begin(), dead.end(), holder) == dead.end())
      dead.push_back(holder);
  }
  for (const net::NodeId d : dead) handle_node_failure(d);
}

void PoolSystem::handle_node_failure(net::NodeId dead) {
  if (dead >= net_.size()) return;
  if (known_dead_.empty()) known_dead_.assign(net_.size(), 0);
  if (known_dead_[dead]) return;
  known_dead_[dead] = 1;

  // (1) Re-elect: affected cells pick the nearest survivor to their
  // center on next use; splitters pointing at the dead node re-scan.
  fault_stats_.failovers += grid_.evict_node(dead);
  for (net::NodeId& s : splitter_cache_)
    if (s == dead) s = net::kNoNode;

  // (2) Data resident at the dead node. Pure state first (no traffic
  // while we iterate), restoration traffic after.
  const std::uint32_t side = config_.side;
  const std::size_t l2 = static_cast<std::size_t>(side) * side;
  struct Restore {
    Event event;
    net::NodeId mirror_holder;
    std::size_t key;        // primary's cell
    CellCoord coord;        // primary's cell coordinate
  };
  std::vector<Restore> restores;
  for (std::size_t key = 0; key < cells_.size(); ++key) {
    auto& cell = cells_[key];
    const std::size_t pool_dim = key / l2;
    const CellOffset off{static_cast<std::uint32_t>(key % side),
                         static_cast<std::uint32_t>((key / side) % side)};
    cell.erase_if([&](std::size_t row) {
      if (cell.holder_at(row) != dead) return false;
      --net_.node_mut(dead).stored_events;
      if (cell.replica_at(row)) {
        --replica_count_;
        return true;
      }
      // Primary destroyed: a surviving mirror (reflected offset, rotated
      // pool) can re-materialize it at the cell's new index node.
      for (std::uint32_t r = 1; r <= config_.replicas; ++r) {
        const std::size_t mirror_pool = (pool_dim + r) % dims_;
        const CellOffset mirror_off{side - 1 - off.ho, side - 1 - off.vo};
        const auto& mirror = cells_[cell_key(mirror_pool, mirror_off)];
        for (std::size_t m = 0; m < mirror.size(); ++m) {
          if (!mirror.replica_at(m) || mirror.id_at(m) != cell.id_at(row))
            continue;
          if (!net_.alive(mirror.holder_at(m))) continue;
          restores.push_back({cell.event_at(row), mirror.holder_at(m), key,
                              layout_.cell(pool_dim, off)});
          return true;
        }
      }
      --stored_count_;
      ++fault_stats_.events_lost;
      return true;
    });
  }

  // (3) Restoration traffic: one Insert leg mirror-holder → new index
  // node per rescued event. Newly-discovered deaths are deferred until
  // this node's repair finishes (no re-entrant cell mutation).
  std::vector<net::NodeId> discovered;
  for (Restore& r : restores) {
    const net::NodeId new_idx = grid_.index_node(r.coord);
    bool stored = false;
    if (new_idx != net::kNoNode) {
      const auto leg = routing::send_reliable(net_, router_, r.mirror_holder,
                                              new_idx, net::MessageKind::Insert,
                                              net_.sizes().event_bits(dims_));
      fault_stats_.retries += leg.retries;
      for (const net::NodeId d : leg.dead_found)
        if (std::find(discovered.begin(), discovered.end(), d) ==
            discovered.end())
          discovered.push_back(d);
      if (leg.delivered) {
        cells_[r.key].append(r.event, new_idx, /*is_replica=*/false);
        ++net_.node_mut(new_idx).stored_events;
        ++fault_stats_.events_restored;
        stored = true;
      }
    }
    if (!stored) {
      ++fault_stats_.failed_legs;
      --stored_count_;
      ++fault_stats_.events_lost;
    }
  }
  for (const net::NodeId d : discovered) handle_node_failure(d);
}

InsertReceipt PoolSystem::insert(net::NodeId source, const Event& event) {
  storage::validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("PoolSystem: event dimensionality mismatch");

  const auto before = net_.traffic().total;
  // The detecting node needs the pivot of every candidate pool (all of
  // them under a Section 4.1 tie) to compute and compare cell locations.
  for (const std::size_t d1 : event.max_dims())
    charge_pivot_lookup(source, d1);
  const CellChoice choice = choose_cell(source, event);

  // Algorithm 1, lines 5-6: route the event to the cell's location; the
  // index node (nearest the center) receives it. If delivery exposes a
  // dead index node, failover re-elects the nearest survivor and the
  // source retries once toward the new election.
  const std::uint64_t ebits = net_.sizes().event_bits(dims_);
  const net::NodeId target = legs_.send_resolved(
      source, [&] { return grid_.index_node(choice.coord); },
      net::MessageKind::Insert, ebits);
  if (target == net::kNoNode) {
    // Event lost in transit (unreachable cell under heavy failure).
    ++fault_stats_.events_lost;
    InsertReceipt receipt;
    receipt.messages = net_.traffic().total - before;
    return receipt;
  }

  net::NodeId holder = target;
  if (config_.workload_sharing &&
      net_.node(holder).stored_events >= config_.share_threshold) {
    const net::NodeId delegate = pick_delegate(holder);
    if (delegate != net::kNoNode &&
        net_.node(delegate).stored_events <
            net_.node(holder).stored_events) {
      // One-hop handoff to the delegate (Section 4.2's workload transfer).
      if (net_.transmit(holder, delegate, net::MessageKind::Insert, ebits))
        holder = delegate;
    }
  }

  const std::size_t key = cell_key(choice.pool_dim, choice.offset);
  cells_[key].append(event, holder, /*is_replica=*/false);
  ++net_.node_mut(holder).stored_events;
  ++stored_count_;

  // Resilience mirrors: the POINT-REFLECTED offset in rotated pools.
  // Reflection matters: event load concentrates in high-offset cells
  // (HO tracks the maximum attribute value), so a same-offset mirror
  // would die together with its primary under load-correlated failures;
  // reflecting places mirrors in the lightly-loaded corner. Queries never
  // read mirrors (no duplicate answers); they only buy failure survival.
  for (std::uint32_t r = 1; r <= config_.replicas; ++r) {
    const std::size_t mirror_pool = (choice.pool_dim + r) % dims_;
    const CellOffset mirror_off{config_.side - 1 - choice.offset.ho,
                                config_.side - 1 - choice.offset.vo};
    const CellCoord mirror_coord = layout_.cell(mirror_pool, mirror_off);
    const net::NodeId mirror_idx = legs_.send_resolved(
        source, [&] { return grid_.index_node(mirror_coord); },
        net::MessageKind::Insert, ebits);
    if (mirror_idx == net::kNoNode) continue;  // this copy just isn't made
    cells_[cell_key(mirror_pool, mirror_off)].append(event, mirror_idx,
                                                     /*is_replica=*/true);
    ++net_.node_mut(mirror_idx).stored_events;
    ++replica_count_;
  }

  // Continuous queries registered at this cell: every match pushes one
  // notification from the storing node straight to the subscriber.
  for (const SubscriptionId sid : cell_subs_[key]) {
    auto& sub = subscriptions_.at(sid);
    if (!sub.query.matches(event)) continue;
    if (!net_.alive(sub.sink)) continue;  // subscriber died; drop silently
    if (holder != sub.sink) {
      router_.route_to_node_into(holder, sub.sink, route_scratch_);
      net_.transmit_path(route_scratch_.path, net::MessageKind::Reply,
                         net_.sizes().reply_bits(dims_, 1));
    }
    sub.pending.push_back(event);
  }

  InsertReceipt receipt;
  receipt.stored_at = holder;
  receipt.messages = net_.traffic().total - before;
  return receipt;
}

net::NodeId PoolSystem::splitter_for(std::size_t pool_dim,
                                     net::NodeId sink) const {
  POOLNET_ASSERT(pool_dim < dims_);
  net::NodeId& memo = splitter_cache_[pool_dim * net_.size() + sink];
  if (memo != net::kNoNode) return memo;
  const Point sink_pos = net_.position(sink);
  net::NodeId best = net::kNoNode;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t vo = 0; vo < config_.side; ++vo) {
    for (std::uint32_t ho = 0; ho < config_.side; ++ho) {
      const net::NodeId idx =
          grid_.index_node(layout_.cell(pool_dim, {ho, vo}));
      const double d2 = distance_sq(net_.position(idx), sink_pos);
      if (d2 < best_d2 || (d2 == best_d2 && idx < best)) {
        best_d2 = d2;
        best = idx;
      }
    }
  }
  memo = best;
  return best;
}

std::size_t PoolSystem::relevant_cell_count(const RangeQuery& q) const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < dims_; ++i)
    total += relevant_cells(q, i, config_.side).size();
  return total;
}

void PoolSystem::plan_range(const RangeQuery& q,
                            std::vector<Visit>& plan) const {
  for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim)
    for (const CellOffset off : relevant_cells(q, pool_dim, config_.side))
      plan.push_back({pool_dim, off});
}

template <typename Op>
void PoolSystem::walk(net::NodeId sink, const std::vector<Visit>& plan, Op& op,
                      storage::ResultReceipt& receipt) {
  const std::uint64_t qbits = net_.sizes().query_bits(dims_);
  const auto reply = [&](net::NodeId from, net::NodeId to, std::uint64_t n) {
    return Op::partial() ? legs_.reply_partial(from, to)
                        : legs_.reply(from, to, n);
  };
  // Per pool: contacted yet, and the splitter that acked (kNoNode: the
  // pool is unreachable for the rest of this walk).
  std::array<bool, storage::kMaxDims> contacted{};
  std::array<net::NodeId, storage::kMaxDims> splitter{};
  // The pool whose replies are merging at its splitter, and their count.
  const Visit* open = nullptr;
  std::uint64_t pool_rows = 0;
  const auto close_pool = [&] {
    // The splitter packs the pool's replies into one reply to the sink;
    // when that is lost, so is everything the pool gathered.
    if (pool_rows > 0) {
      if (reply(splitter[open->pool], sink, pool_rows)) {
        op.on_leg(Leg::PoolReply, *open, legs_.route().hops());
      } else {
        op.drop_pool();
      }
    }
    pool_rows = 0;
    op.end_pool();
  };
  std::vector<std::uint32_t> rows;

  for (const Visit& v : plan) {
    if (!Op::flush_per_visit()) {
      if (open != nullptr && open->pool != v.pool) close_pool();
      open = &v;
    }
    if (!op.admit(v)) continue;
    if (!contacted[v.pool]) {
      contacted[v.pool] = true;
      const auto pivot_before = net_.traffic().total;
      charge_pivot_lookup(sink, v.pool);
      op.on_leg(Leg::Pivot, v, net_.traffic().total - pivot_before);
      // A dead splitter is re-picked by failover; retry once toward it.
      splitter[v.pool] = legs_.send_resolved(
          sink, [&] { return splitter_for(v.pool, sink); }, Op::contact_kind(),
          qbits);
      if (splitter[v.pool] != net::kNoNode)
        op.on_leg(Leg::Contact, v, legs_.route().hops());
    }
    const net::NodeId split = splitter[v.pool];
    if (split == net::kNoNode) continue;  // pool unreachable this walk

    const std::size_t key = cell_key(v.pool, v.off);
    if (net_.has_failures()) absorb_dead_holders(key);
    const CellCoord coord = layout_.cell(v.pool, v.off);
    const net::NodeId idx = legs_.send_resolved(
        split, [&] { return grid_.index_node(coord); }, Op::cell_kind(), qbits);
    if (idx == net::kNoNode) continue;  // cell unreachable this walk
    op.on_leg(Leg::Cell, v, legs_.route().hops());
    ++receipt.index_nodes_visited;

    const auto& cell = cells_[key];
    rows.clear();
    op.select(v, cell, idx, rows);
    // Workload sharing: rows held by delegates cost the index node a poll
    // and the delegate's reply. After a failover the delegate need not be
    // a radio neighbor of the re-elected index node, so the poll is a
    // routed leg (one hop between neighbors, as before failures).
    std::unordered_map<net::NodeId, std::uint64_t> at_delegate;
    for (const std::uint32_t row : rows) {
      const net::NodeId holder = cell.holder_at(row);
      if (holder != idx) ++at_delegate[holder];
    }
    for (const auto& [delegate, n] : at_delegate) {
      legs_.send(idx, delegate, Op::cell_kind(), qbits);
      const std::uint64_t poll_hops = legs_.route().hops();
      if (reply(delegate, idx, n)) {
        op.on_poll(delegate, poll_hops, legs_.route().hops());
      } else {
        op.drop_delegate(v, cell, delegate);
        std::erase_if(rows, [&, d = delegate](std::uint32_t row) {
          return cell.holder_at(row) == d;
        });
      }
    }
    if (rows.empty()) continue;
    // The rows count once they reach the sink: at once, or merged into
    // the pool's reply at the splitter.
    const bool at_splitter = reply(idx, split, rows.size());
    if (at_splitter) op.on_leg(Leg::CellReply, v, legs_.route().hops());
    if (!at_splitter ||
        (Op::flush_per_visit() && !reply(split, sink, rows.size()))) {
      op.drop_visit(v);
    } else if (!Op::flush_per_visit()) {
      pool_rows += rows.size();
    }
  }
  if (open != nullptr) close_pool();
}

QueryReceipt PoolSystem::query(net::NodeId sink, const RangeQuery& q) {
  return batch_of_one(sink, q);
}

QueryReceipt PoolSystem::skyline(net::NodeId sink,
                                 const storage::SkylineQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("PoolSystem: skyline dimensionality mismatch");

  // Equation 1 gives every cell's best-possible corner without any
  // messages: events in cell (HO,VO) of pool d1 have their d1 value
  // below (HO+1)/l and every OTHER attribute below the second-greatest
  // bound (VO+1)(HO+1)/l². Visit cells best-corner-first so collected
  // skyline points prune the rest.
  struct Candidate {
    double key;  ///< Σ corner over selected attrs (descending visit order)
    std::size_t pool_dim;
    CellOffset off;
    storage::Values corner;
  };
  std::vector<Candidate> cands;
  cands.reserve(cells_.size());
  for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim) {
    for (std::uint32_t vo = 0; vo < config_.side; ++vo) {
      for (std::uint32_t ho = 0; ho < config_.side; ++ho) {
        Candidate c{0.0, pool_dim, {ho, vo}, {}};
        const double top_h = range_h(ho, config_.side).hi;
        const double top_v = range_v(ho, vo, config_.side).hi;
        for (std::size_t d = 0; d < dims_; ++d)
          c.corner.push_back(d == pool_dim ? top_h : top_v);
        for (std::size_t d = 0; d < dims_; ++d)
          if (q.on(d)) c.key += c.corner[d];
        cands.push_back(std::move(c));
      }
    }
  }
  std::sort(cands.begin(), cands.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.key != b.key) return a.key > b.key;
              if (a.pool_dim != b.pool_dim) return a.pool_dim < b.pool_dim;
              if (a.off.ho != b.off.ho) return a.off.ho < b.off.ho;
              return a.off.vo < b.off.vo;
            });
  std::vector<Visit> plan;
  plan.reserve(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i)
    plan.push_back({cands[i].pool_dim, cands[i].off, i});

  struct LocalSkyline : VisitOp {
    // Candidates flow back cell → splitter → sink at once: the sink needs
    // them to prune the NEXT visit, so no pool-end merging.
    static constexpr bool flush_per_visit() { return true; }
    const storage::SkylineQuery& q;
    const std::vector<Candidate>& cands;
    std::vector<Event> collected;
    std::size_t visit_mark = 0;  ///< collected.size() before this visit

    // The pruning rule: a cell whose corner is dominated by an already-
    // collected point can only hold dominated events (strictness against
    // the corner carries to every event at or below it) — skip it
    // without transmitting anything.
    bool admit(const Visit& v) {
      return storage::skyline_admits(q, collected, cands[v.tag].corner);
    }
    // The cell reduces its residents to their LOCAL skyline before
    // replying — reply volume shrinks, correctness is untouched (an
    // event dominated within its own cell is dominated globally).
    void select(const Visit&, const storage::column::ColumnStore& cell,
                net::NodeId, std::vector<std::uint32_t>& rows) {
      visit_mark = collected.size();
      std::vector<std::pair<Event, std::uint32_t>> residents;
      for (std::uint32_t row = 0; row < cell.size(); ++row)
        if (!cell.replica_at(row)) residents.push_back({cell.event_at(row), row});
      for (auto& [e, row] : residents) {
        bool dominated = false;
        for (const auto& other : residents)
          if (q.dominates(other.first.values, e.values)) {
            dominated = true;
            break;
          }
        if (dominated) continue;
        rows.push_back(row);
        if (storage::skyline_admits(q, collected, e.values))
          collected.push_back(e);
      }
    }
    void drop_delegate(const Visit&, const storage::column::ColumnStore& cell,
                       net::NodeId delegate) {
      drop_held_by(cell, delegate, collected, visit_mark);
    }
    void drop_visit(const Visit&) { collected.resize(visit_mark); }
  };
  QueryReceipt receipt;
  const auto before = net_.traffic();
  LocalSkyline op{{}, q, cands, {}};
  walk(sink, plan, op, receipt);
  storage::skyline_filter(q, op.collected);
  receipt.events = std::move(op.collected);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

QueryReceipt PoolSystem::k_nearest(net::NodeId sink,
                                   const storage::KNearestQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("PoolSystem: k-NN target dimensionality mismatch");
  if (q.initial_radius < 0.0)
    throw ConfigError("PoolSystem: k-NN initial radius must be positive");

  struct LocalTopK : VisitOp {
    const storage::KNearestQuery& q;
    std::vector<Event>& cand;
    std::vector<std::tuple<double, std::uint64_t, std::uint32_t>> keyed{};
    std::size_t visit_mark = 0;  ///< cand.size() before this visit
    std::size_t pool_mark = 0;   ///< cand.size() when the pool opened
    // The cell answers with its local top-k, box or not — the box only
    // chooses WHICH cells to visit; reporting the true local optimum
    // means a visited cell never needs re-querying when the box grows.
    void select(const Visit&, const storage::column::ColumnStore& cell,
                net::NodeId, std::vector<std::uint32_t>& rows) {
      visit_mark = cand.size();
      keyed.clear();
      for (std::uint32_t row = 0; row < cell.size(); ++row)
        if (!cell.replica_at(row))
          keyed.emplace_back(
              storage::squared_distance(q.target, cell.event_at(row).values),
              cell.id_at(row), row);
      const std::size_t n = std::min(keyed.size(), q.k);
      std::partial_sort(keyed.begin(), keyed.begin() + n, keyed.end());
      for (std::size_t i = 0; i < n; ++i) {
        rows.push_back(std::get<2>(keyed[i]));
        cand.push_back(cell.event_at(std::get<2>(keyed[i])));
      }
    }
    void end_pool() {  // running top-k
      storage::knn_filter(q, cand);
      pool_mark = cand.size();
    }
    void drop_delegate(const Visit&, const storage::column::ColumnStore& cell,
                       net::NodeId delegate) {
      drop_held_by(cell, delegate, cand, visit_mark);
    }
    void drop_visit(const Visit&) { cand.resize(visit_mark); }
    void drop_pool() { cand.resize(pool_mark); }
  };
  QueryReceipt receipt;
  const auto before = net_.traffic();
  // Cells already planned; the sink can track these because resolving is
  // pure arithmetic on the predefined layout.
  std::vector<char> planned(cells_.size(), 0);
  std::vector<Event> cand;
  LocalTopK op{{}, q, cand};
  std::vector<Visit> plan;

  double radius = q.initial_radius > 0.0 ? q.initial_radius : 0.05;
  while (true) {
    ++receipt.rounds;
    plan.clear();
    plan_range(storage::box_around(q.target, radius), plan);
    std::erase_if(plan, [&](const Visit& v) {
      return std::exchange(planned[cell_key(v.pool, v.off)], 1) != 0;
    });
    walk(sink, plan, op, receipt);

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

storage::BatchQueryReceipt PoolSystem::query_batch(
    net::NodeId sink, const std::vector<RangeQuery>& queries) {
  for (const RangeQuery& q : queries)
    if (q.dims() != dims_)
      throw ConfigError("PoolSystem: query dimensionality mismatch");

  storage::BatchQueryReceipt batch;
  batch.per_query.resize(queries.size());
  const auto mark = legs_.mark();
  const std::size_t nq = queries.size();

  // The plan: per pool, the union of the members' relevant cells (Theorem
  // 3.2 resolving is pure arithmetic, so the sink merges before sending
  // anything) in first-seen order, each visit tagged with its askers.
  // A batch of one is exactly plan_range's plan.
  struct Askers {
    std::vector<std::size_t> queries;
    std::vector<std::vector<Event>> found;  ///< per asker, scan order
  };
  std::vector<Askers> askers;                     // by visit tag
  std::vector<std::vector<CellOffset>> qcells(dims_ * nq);  // [pool*nq+qi]
  std::vector<std::uint64_t> users(dims_, 0);     // askers per pool
  constexpr std::size_t kUnplanned = static_cast<std::size_t>(-1);
  std::vector<std::size_t> tag_of(cells_.size(), kUnplanned);  // by cell key
  std::vector<Visit> plan;
  for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim) {
    for (std::size_t qi = 0; qi < nq; ++qi) {
      auto& cells = qcells[pool_dim * nq + qi];
      cells = relevant_cells(queries[qi], pool_dim, config_.side);
      if (cells.empty()) continue;
      ++users[pool_dim];
      for (const CellOffset off : cells) {
        std::size_t& tag = tag_of[cell_key(pool_dim, off)];
        if (tag == kUnplanned) {
          tag = askers.size();
          plan.push_back({pool_dim, off, tag});
          askers.emplace_back();
        }
        askers[tag].queries.push_back(qi);
        askers[tag].found.emplace_back();
      }
    }
  }

  struct Union : VisitOp {
    const std::vector<RangeQuery>& queries;
    std::vector<Askers>& askers;
    std::vector<storage::QueryReceipt>& per_query;
    const std::vector<std::uint64_t>& users;
    const net::MessageSizes& sizes;
    std::vector<std::uint32_t> totals;        ///< this visit, per asker
    std::vector<std::uint32_t> pool_matches;  ///< this pool, per query
    std::vector<char> answered{};             ///< this visit, per row
    /// This visit: each delegate's matches, per asker.
    std::vector<std::pair<net::NodeId, std::vector<std::uint32_t>>> at_delegate{};
    std::vector<std::size_t> pool_tags{};     ///< this pool's visits
    /// What issuing each query alone would have charged, from the hop
    /// counts of the legs the merged walk takes (every serial leg is
    /// also a union leg, so the routes are already at hand).
    std::uint64_t serial_cost = 0;

    // Each asker runs the column kernel over the cell; a bitmap keeps the
    // DISTINCT matching rows, which are what travels back (a lone asker's
    // rows are distinct and in row order already), and each asker's
    // matches are split by holder for the delegate polls.
    void select(const Visit& v, const storage::column::ColumnStore& cell,
                net::NodeId idx, std::vector<std::uint32_t>& rows) {
      Askers& a = askers[v.tag];
      const bool shared = a.queries.size() > 1;
      pool_tags.push_back(v.tag);
      totals.assign(a.queries.size(), 0);
      if (shared) answered.assign(cell.size(), 0);
      at_delegate.clear();
      for (std::size_t ai = 0; ai < a.queries.size(); ++ai) {
        cell.scan(queries[a.queries[ai]], /*skip_replicas=*/true,
                  [&](std::size_t row) {
                    ++totals[ai];
                    a.found[ai].push_back(cell.event_at(row));
                    if (!shared || !std::exchange(answered[row], 1))
                      rows.push_back(static_cast<std::uint32_t>(row));
                    const net::NodeId holder = cell.holder_at(row);
                    if (holder == idx) return;
                    auto it = std::find_if(
                        at_delegate.begin(), at_delegate.end(),
                        [&](const auto& d) { return d.first == holder; });
                    if (it == at_delegate.end())
                      it = at_delegate.insert(
                          it, {holder, std::vector<std::uint32_t>(
                                           a.queries.size(), 0)});
                    ++it->second[ai];
                  });
        pool_matches[a.queries[ai]] += totals[ai];
      }
      if (shared) std::sort(rows.begin(), rows.end());
    }
    void on_leg(Leg leg, const Visit& v, std::uint64_t hops) {
      switch (leg) {
        case Leg::Pivot:  // cached per (node, pool): serial pays the same
          serial_cost += hops;
          break;
        case Leg::Contact:
          serial_cost += users[v.pool] * hops;
          break;
        case Leg::Cell:
          serial_cost += askers[v.tag].queries.size() * hops;
          for (const std::size_t qi : askers[v.tag].queries)
            ++per_query[qi].index_nodes_visited;
          break;
        case Leg::CellReply:
          for (const std::uint32_t n : totals)
            serial_cost += sizes.reply_batches(n) * hops;
          break;
        case Leg::PoolReply:
          for (const std::uint32_t n : pool_matches)
            serial_cost += sizes.reply_batches(n) * hops;
          break;
      }
    }
    // Serial: each asker with matches at the delegate polls it and pulls
    // its own reply batches.
    void on_poll(net::NodeId delegate, std::uint64_t poll_hops,
                 std::uint64_t reply_hops) {
      for (const auto& [holder, per] : at_delegate)
        if (holder == delegate)
          for (const std::uint32_t n : per)
            if (n > 0) serial_cost += poll_hops + sizes.reply_batches(n) * reply_hops;
    }
    void end_pool() {
      std::fill(pool_matches.begin(), pool_matches.end(), 0);
      pool_tags.clear();
    }
    // A lost reply takes its rows out of every asker's answer and out of
    // the reply sizes serial issue would have paid for.
    void drop_delegate(const Visit& v, const storage::column::ColumnStore& cell,
                       net::NodeId delegate) {
      Askers& a = askers[v.tag];
      const auto lost = std::find_if(
          at_delegate.begin(), at_delegate.end(),
          [&](const auto& d) { return d.first == delegate; });
      for (std::size_t ai = 0; ai < a.queries.size(); ++ai) {
        drop_held_by(cell, delegate, a.found[ai], 0);
        if (lost == at_delegate.end()) continue;
        totals[ai] -= lost->second[ai];
        pool_matches[a.queries[ai]] -= lost->second[ai];
      }
    }
    void drop_visit(const Visit& v) {
      Askers& a = askers[v.tag];
      for (std::size_t ai = 0; ai < a.queries.size(); ++ai) {
        a.found[ai].clear();
        pool_matches[a.queries[ai]] -= totals[ai];
      }
    }
    void drop_pool() {
      for (const std::size_t tag : pool_tags)
        for (auto& found : askers[tag].found) found.clear();
    }
  };
  Union op{{}, queries, askers, batch.per_query, users, net_.sizes(), {},
           std::vector<std::uint32_t>(nq, 0)};
  walk(sink, plan, op, batch);
  batch.unique_cell_visits = batch.index_nodes_visited;
  for (const auto& r : batch.per_query)
    batch.serial_cell_visits += r.index_nodes_visited;

  // Demultiplex: each query takes its events cell by cell in ITS OWN
  // resolver order — exactly plan_range's order for that query alone, so
  // the per-query result is identical even though the union visited the
  // cells in first-seen order.
  for (std::size_t pool_dim = 0; pool_dim < dims_; ++pool_dim) {
    for (std::size_t qi = 0; qi < nq; ++qi) {
      auto& events = batch.per_query[qi].events;
      for (const CellOffset off : qcells[pool_dim * nq + qi]) {
        Askers& a = askers[tag_of[cell_key(pool_dim, off)]];
        const auto ai =
            std::find(a.queries.begin(), a.queries.end(), qi) - a.queries.begin();
        for (Event& e : a.found[ai]) events.push_back(std::move(e));
      }
    }
  }

  legs_.settle(mark, op.serial_cost, batch);
  return batch;
}

storage::AggregateReceipt PoolSystem::aggregate(net::NodeId sink,
                                                const RangeQuery& q,
                                                storage::AggregateKind kind,
                                                std::size_t value_dim) {
  if (q.dims() != dims_)
    throw ConfigError("PoolSystem: query dimensionality mismatch");
  if (value_dim >= dims_)
    throw ConfigError("PoolSystem: aggregate dimension out of range");

  struct Partials : VisitOp {
    static constexpr bool partial() { return true; }
    const RangeQuery& q;
    std::size_t value_dim;
    storage::PartialAggregate pool{}, total{};
    storage::PartialAggregate before{};  ///< `pool` before this visit
    storage::PartialAggregate own{};     ///< this visit's index-node rows
    std::unordered_map<net::NodeId, storage::PartialAggregate> at_delegate{};
    // The cell reduces its matches to one fixed-size partial: its own
    // rows in scan order, then each delegate's partial as its poll
    // returns it. The splitter merges the pool's partials.
    void select(const Visit&, const storage::column::ColumnStore& cell,
                net::NodeId idx, std::vector<std::uint32_t>& rows) {
      before = pool;
      own = {};
      at_delegate.clear();
      cell.scan(q, /*skip_replicas=*/true, [&](std::size_t row) {
        rows.push_back(static_cast<std::uint32_t>(row));
        const double v = cell.value_at(row, value_dim);
        const net::NodeId holder = cell.holder_at(row);
        if (holder == idx) {
          own.add(v);
        } else {
          at_delegate[holder].add(v);
        }
      });
      merge_visit();
    }
    void merge_visit() {
      storage::PartialAggregate here = own;
      for (const auto& [delegate, partial] : at_delegate) here.merge(partial);
      if (!here.empty()) pool.merge(here);
    }
    void end_pool() {
      if (!pool.empty()) total.merge(pool);
      pool = {};
    }
    void drop_delegate(const Visit&, const storage::column::ColumnStore&,
                       net::NodeId delegate) {
      at_delegate.erase(delegate);
      pool = before;
      merge_visit();
    }
    void drop_visit(const Visit&) { pool = before; }
    void drop_pool() { pool = {}; }
  };
  storage::AggregateReceipt receipt;
  const auto before = net_.traffic();
  std::vector<Visit> plan;
  plan_range(q, plan);
  Partials op{{}, q, value_dim};
  walk(sink, plan, op, receipt);
  receipt.result = op.total.finalize(kind);
  receipt.cost() = storage::cost_of(net_.traffic() - before);
  return receipt;
}

std::vector<std::size_t> PoolSystem::walk_registration(net::NodeId sink,
                                                       const RangeQuery& q) {
  // Registration and cancellation travel the query tree as Control
  // messages; cells answer nothing.
  struct Registration : VisitOp {
    static constexpr net::MessageKind contact_kind() {
      return net::MessageKind::Control;
    }
    static constexpr net::MessageKind cell_kind() {
      return net::MessageKind::Control;
    }
    void select(const Visit&, const storage::column::ColumnStore&,
                net::NodeId, std::vector<std::uint32_t>&) {}
  };
  std::vector<Visit> plan;
  plan_range(q, plan);
  Registration op;
  storage::ResultReceipt ignored;
  walk(sink, plan, op, ignored);
  std::vector<std::size_t> keys;
  for (const Visit& v : plan) keys.push_back(cell_key(v.pool, v.off));
  return keys;
}

PoolSystem::SubscriptionId PoolSystem::subscribe(net::NodeId sink,
                                                 const RangeQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("PoolSystem: subscription dimensionality mismatch");
  const SubscriptionId id = next_subscription_++;
  subscriptions_.emplace(id, Subscription{sink, q, {}});
  for (const std::size_t key : walk_registration(sink, q))
    cell_subs_[key].push_back(id);
  return id;
}

void PoolSystem::unsubscribe(SubscriptionId id) {
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return;
  for (const std::size_t key :
       walk_registration(it->second.sink, it->second.query))
    std::erase(cell_subs_[key], id);
  subscriptions_.erase(it);
}

std::vector<PoolSystem::Notification> PoolSystem::take_notifications(
    SubscriptionId id) {
  std::vector<Notification> out;
  const auto it = subscriptions_.find(id);
  if (it == subscriptions_.end()) return out;
  for (storage::Event& e : it->second.pending)
    out.push_back({id, std::move(e)});
  it->second.pending.clear();
  return out;
}

std::size_t PoolSystem::expire_before(double cutoff) {
  std::size_t primaries_removed = 0;
  for (auto& cell : cells_) {
    cell.erase_if([&](std::size_t row) {
      if (cell.time_at(row) >= cutoff) return false;
      --net_.node_mut(cell.holder_at(row)).stored_events;
      if (cell.replica_at(row)) {
        --replica_count_;
      } else {
        ++primaries_removed;
      }
      return true;
    });
  }
  stored_count_ -= primaries_removed;
  return primaries_removed;
}

std::size_t PoolSystem::cell_load(std::size_t pool_dim,
                                  CellOffset offset) const {
  return cells_[cell_key(pool_dim, offset)].size();
}

PoolSystem::SurvivabilityReport PoolSystem::survivability(
    const std::vector<net::NodeId>& dead_nodes) const {
  std::vector<char> dead(net_.size(), 0);
  for (const net::NodeId n : dead_nodes) {
    POOLNET_ASSERT(n < net_.size());
    dead[n] = 1;
  }
  // Per event id: did the primary die, does any mirror survive?
  std::unordered_map<std::uint64_t, std::pair<bool, bool>> state;
  state.reserve(stored_count_);
  for (const auto& cell : cells_) {
    for (std::size_t row = 0; row < cell.size(); ++row) {
      auto& [primary_dead, mirror_alive] = state[cell.id_at(row)];
      if (cell.replica_at(row)) {
        if (!dead[cell.holder_at(row)]) mirror_alive = true;
      } else {
        primary_dead = dead[cell.holder_at(row)] != 0;
      }
    }
  }
  SurvivabilityReport report;
  report.total_events = state.size();
  for (const auto& [id, s] : state) {
    if (!s.first) continue;  // primary survived
    ++report.primaries_lost;
    if (s.second) {
      ++report.recovered;
    } else {
      ++report.lost;
    }
  }
  return report;
}

std::uint64_t PoolSystem::max_node_load() const {
  std::uint64_t mx = 0;
  for (const auto& n : net_.nodes()) mx = std::max(mx, n.stored_events);
  return mx;
}

}  // namespace poolnet::core
