#include "storage/brute_force_store.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "net/network.h"
#include "routing/router.h"

namespace poolnet::storage {

BruteForceStore::BruteForceStore(std::size_t dims) : dims_(dims) {
  if (dims == 0 || dims > kMaxDims)
    throw ConfigError("BruteForceStore: bad dimensionality");
  store_ = column::ColumnStore(dims);
  store_.set_stats(&scan_stats_);
}

BruteForceStore::BruteForceStore(std::size_t dims, net::Network& network,
                                 const routing::Router& router,
                                 net::NodeId sink_node)
    : BruteForceStore(dims) {
  network_ = &network;
  router_ = &router;
  base_station_ = sink_node;
}

InsertReceipt BruteForceStore::insert(net::NodeId source, const Event& event) {
  validate_event(event);
  if (event.dims() != dims_)
    throw ConfigError("BruteForceStore: event dimensionality mismatch");
  store_.append(event);
  all_dirty_ = true;
  InsertReceipt receipt;
  receipt.stored_at = base_station_ == net::kNoNode ? source : base_station_;
  if (network_ != nullptr && base_station_ != net::kNoNode) {
    const auto before = network_->traffic().total;
    const auto route = router_->route_to_node(source, base_station_);
    network_->transmit_path(route.path, net::MessageKind::Insert,
                            network_->sizes().event_bits(dims_));
    receipt.messages = network_->traffic().total - before;
  }
  return receipt;
}

void BruteForceStore::charge_query_traffic(net::NodeId sink,
                                           QueryReceipt& receipt) const {
  if (network_ == nullptr || base_station_ == net::kNoNode) return;
  const auto before = network_->traffic();
  // Query travels to the base station; replies come back packed.
  const auto to_bs = router_->route_to_node(sink, base_station_);
  network_->transmit_path(to_bs.path, net::MessageKind::Query,
                          network_->sizes().query_bits(dims_));
  const auto back = router_->route_to_node(base_station_, sink);
  const auto& sizes = network_->sizes();
  const std::uint64_t reply_count =
      std::max<std::uint64_t>(sizes.reply_batches(receipt.events.size()), 1);
  for (std::uint64_t i = 0; i < reply_count; ++i) {
    network_->transmit_path(
        back.path, net::MessageKind::Reply,
        sizes.reply_bits(dims_, sizes.reply_payload(receipt.events.size())));
  }
  const auto delta = network_->traffic() - before;
  receipt.cost() = cost_of(delta);
}

QueryReceipt BruteForceStore::query(net::NodeId sink, const RangeQuery& q) {
  QueryReceipt receipt;
  receipt.events = matching(q);
  receipt.index_nodes_visited = 1;
  charge_query_traffic(sink, receipt);
  return receipt;
}

QueryReceipt BruteForceStore::skyline(net::NodeId sink, const SkylineQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("BruteForceStore: skyline dimensionality mismatch");
  QueryReceipt receipt;
  std::vector<Event> cand;
  Values corner;
  const std::size_t blocks = store_.block_count();
  for (std::size_t b = 0; b < blocks; ++b) {
    // A block whose per-attribute maxima are dominated by a collected
    // event holds only dominated rows (every row is <= the corner on the
    // selected subset, and the dominator beats the corner strictly
    // somewhere) — skip it without touching its columns.
    const double* zmax = store_.block_max(b);
    corner.clear();
    for (std::size_t d = 0; d < dims_; ++d) corner.push_back(zmax[d]);
    if (!skyline_admits(q, cand, corner)) {
      ++scan_stats_.blocks_skipped;
      continue;
    }
    const std::size_t base = b * column::kBlockRows;
    const std::size_t rows = store_.block_rows(b);
    scan_stats_.rows_scanned += rows;
    scan_stats_.bytes_touched += rows * dims_ * sizeof(double);
    for (std::size_t r = base; r < base + rows; ++r) {
      Event e = store_.event_at(r);
      if (skyline_admits(q, cand, e.values)) cand.push_back(std::move(e));
    }
  }
  skyline_filter(q, cand);
  receipt.events = std::move(cand);
  receipt.index_nodes_visited = 1;
  charge_query_traffic(sink, receipt);
  return receipt;
}

QueryReceipt BruteForceStore::k_nearest(net::NodeId sink,
                                        const KNearestQuery& q) {
  if (q.dims() != dims_)
    throw ConfigError("BruteForceStore: k-NN dimensionality mismatch");
  QueryReceipt receipt;
  std::vector<Event> cand;
  // Visit blocks in order of their zone-map lower-bound distance to the
  // target; stop once the next block cannot beat the current k-th best
  // (strictly — an equal-distance block may still hold a lower-id tie).
  const std::size_t blocks = store_.block_count();
  std::vector<std::pair<double, std::size_t>> order;
  order.reserve(blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const double* zmin = store_.block_min(b);
    const double* zmax = store_.block_max(b);
    double d2 = 0.0;
    for (std::size_t d = 0; d < dims_; ++d) {
      const double t = q.target[d];
      const double gap = t < zmin[d] ? zmin[d] - t : (t > zmax[d] ? t - zmax[d] : 0.0);
      d2 += gap * gap;
    }
    order.emplace_back(d2, b);
  }
  std::sort(order.begin(), order.end());
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (order[i].first > knn_kth_distance2(q, cand)) {
      scan_stats_.blocks_skipped += order.size() - i;
      break;
    }
    const std::size_t b = order[i].second;
    const std::size_t base = b * column::kBlockRows;
    const std::size_t rows = store_.block_rows(b);
    scan_stats_.rows_scanned += rows;
    scan_stats_.bytes_touched += rows * dims_ * sizeof(double);
    for (std::size_t r = base; r < base + rows; ++r)
      cand.push_back(store_.event_at(r));
    knn_filter(q, cand);  // keep only the running top-k between blocks
  }
  receipt.events = std::move(cand);
  receipt.rounds = 1;
  receipt.index_nodes_visited = 1;
  charge_query_traffic(sink, receipt);
  return receipt;
}

AggregateResult BruteForceStore::aggregate_oracle(const RangeQuery& q,
                                                  AggregateKind kind,
                                                  std::size_t value_dim) const {
  PartialAggregate partial;
  aggregate_into(q, value_dim, partial);
  return partial.finalize(kind);
}

void BruteForceStore::aggregate_into(const RangeQuery& q,
                                     std::size_t value_dim,
                                     PartialAggregate& partial) const {
  POOLNET_ASSERT(value_dim < dims_);
  store_.scan(q, false, [&](std::size_t row) {
    partial.add(store_.value_at(row, value_dim));
  });
}

AggregateReceipt BruteForceStore::aggregate(net::NodeId sink,
                                            const RangeQuery& q,
                                            AggregateKind kind,
                                            std::size_t value_dim) {
  AggregateReceipt receipt;
  receipt.result = aggregate_oracle(q, kind, value_dim);
  receipt.index_nodes_visited = 1;
  if (network_ != nullptr && base_station_ != net::kNoNode) {
    const auto before = network_->traffic();
    const auto to_bs = router_->route_to_node(sink, base_station_);
    network_->transmit_path(to_bs.path, net::MessageKind::Query,
                            network_->sizes().query_bits(dims_));
    const auto back = router_->route_to_node(base_station_, sink);
    network_->transmit_path(back.path, net::MessageKind::Reply,
                            network_->sizes().aggregate_bits());
    const auto delta = network_->traffic() - before;
    receipt.cost() = cost_of(delta);
  }
  return receipt;
}

std::size_t BruteForceStore::liveness_epoch() const {
  return network_ != nullptr ? network_->dead_count() : 0;
}

std::size_t BruteForceStore::expire_before(double cutoff) {
  const std::size_t removed = store_.expire_before(cutoff);
  if (removed != 0) all_dirty_ = true;
  return removed;
}

std::vector<Event> BruteForceStore::matching(const RangeQuery& q) const {
  std::vector<Event> out;
  matching_into(q, out);
  return out;
}

void BruteForceStore::matching_into(const RangeQuery& q,
                                    std::vector<Event>& out) const {
  store_.matching_into(q, out);
}

const std::vector<Event>& BruteForceStore::all() const {
  if (all_dirty_) {
    all_cache_.clear();
    all_cache_.reserve(store_.size());
    store_.for_each(
        [&](std::size_t row) { all_cache_.push_back(store_.event_at(row)); });
    all_dirty_ = false;
  }
  return all_cache_;
}

}  // namespace poolnet::storage
