// DIM — Distributed Index for Multi-dimensional data (Li et al., SenSys'03).
//
// The comparison baseline of the paper's evaluation (Section 5): the only
// prior DCS system supporting multi-dimensional range queries. Events are
// hashed to zones via the zone tree; queries are addressed to the deepest
// zone enclosing them and then recursively split toward every overlapping
// leaf zone; leaf owners return qualifying events directly to the sink.
#pragma once

#include <cstdint>
#include <vector>

#include "dim/zone_tree.h"
#include "net/network.h"
#include "routing/router.h"
#include "storage/column/column_store.h"
#include "storage/dcs_system.h"
#include "storage/legs.h"

namespace poolnet::dim {

class DimSystem final : public storage::DcsSystem {
 public:
  DimSystem(net::Network& network, const routing::Router& router,
            std::size_t dims);

  std::string name() const override { return "DIM"; }
  std::string describe() const override;
  std::size_t dims() const override { return tree_.dims(); }

  storage::InsertReceipt insert(net::NodeId source,
                                const storage::Event& event) override;
  /// A range query is a batch of one through query_batch's merged walk.
  storage::QueryReceipt query(net::NodeId sink,
                              const storage::RangeQuery& query) override;

  /// Merged multi-query execution: every member walks its own serial zone
  /// tree, and a leg is sent once for all members it carries from the
  /// same node into the same zone; each answering leaf replies once with
  /// the distinct matching events of all askers — so the batch never
  /// costs more than the serial sum, even for disjoint queries whose zone
  /// walks diverge. Per-query results are identical to issuing each
  /// query alone (DESIGN.md §8).
  storage::BatchQueryReceipt query_batch(
      net::NodeId sink,
      const std::vector<storage::RangeQuery>& queries) override;

  /// Skyline with zone-corner dominance pruning: every leaf zone's best
  /// possible point is the top of its value-range box (known to the sink
  /// from the shared zone code, no messages). Zones are visited
  /// best-corner-first and a zone whose corner is dominated by an
  /// already-collected event is never contacted.
  storage::QueryReceipt skyline(net::NodeId sink,
                                const storage::SkylineQuery& query) override;

  /// k nearest stored events by expanding-ring search over leaf zones:
  /// each round contacts the not-yet-visited zones overlapping the
  /// current box; owners reply with their local top-k, and the search
  /// stops once the k-th best candidate provably lies inside the ring.
  storage::QueryReceipt k_nearest(
      net::NodeId sink, const storage::KNearestQuery& query) override;

  /// Aggregates are computed per leaf zone; each answering owner sends a
  /// fixed-size partial straight to the sink (DIM has no in-network merge
  /// point, unlike Pool's splitters).
  storage::AggregateReceipt aggregate(net::NodeId sink,
                                      const storage::RangeQuery& query,
                                      storage::AggregateKind kind,
                                      std::size_t value_dim) override;

  std::size_t stored_count() const override { return stored_count_; }
  std::size_t expire_before(double cutoff) override;

  /// Online failover: orphaned leaf zones are adopted by the zone-tree
  /// neighbor (the closest surviving owner in the nearest enclosing
  /// sibling subtree — DIM's backup-zone rule applied at runtime). Events
  /// resident at the dead owner are counted lost (DIM stores no mirrors);
  /// cached representatives of the dead node are forgotten. Idempotent.
  void handle_node_failure(net::NodeId dead) override;
  std::size_t liveness_epoch() const override { return net_.dead_count(); }

  const ZoneTree& tree() const { return tree_; }

  const storage::column::ScanStats* scan_stats() const override {
    return &scan_stats_;
  }

  /// Events resident in a given leaf zone, materialized from the column
  /// store in insertion order (diagnostics, load analysis).
  std::vector<storage::Event> zone_store(ZoneIndex leaf) const;

  /// Number of leaf zones a query must visit (pruning diagnostic).
  std::size_t relevant_zone_count(const storage::RangeQuery& q) const {
    return tree_.leaves_overlapping(q).size();
  }

 private:
  /// Node a (sub)query is addressed to when targeting this zone.
  net::NodeId representative(ZoneIndex zidx) const;

  /// DIM's query tree for several queries at once (range batches, and
  /// aggregates as a batch of one). Each member is routed from `sink` to
  /// the deepest zone enclosing it, then split toward every overlapping
  /// leaf with reliable `send_resolved` legs; a leg is shared by the
  /// members it carries from one node into one zone. `on_leaf(leaf,
  /// served)` runs once per reached leaf with the members its owner
  /// received, in each member's serial visit order. Returns the forwarding
  /// cost issuing each member alone would have charged.
  template <typename LeafFn>
  std::uint64_t disseminate(net::NodeId sink,
                            const std::vector<storage::RangeQuery>& qs,
                            LeafFn&& on_leaf);

  /// Skyline and k-NN visit leaves one at a time: the sink addresses
  /// `leaf`'s owner, which reduces its residents with `reduce` into
  /// `local` and replies them. False when the owner or the reply is
  /// unreachable, or nothing is left to reply.
  template <typename Reduce>
  bool visit_owner(net::NodeId sink, ZoneIndex leaf, Reduce&& reduce,
                   std::vector<storage::Event>& local,
                   storage::ResultReceipt& receipt);

  net::Network& net_;

  storage::Legs legs_;

  ZoneTree tree_;
  std::vector<storage::column::ColumnStore> store_;  // indexed by ZoneIndex
  mutable storage::column::ScanStats scan_stats_;
  std::size_t stored_count_ = 0;
  mutable std::vector<net::NodeId> rep_cache_;

  /// Nodes whose failure has already been absorbed (failover is
  /// idempotent per node). Allocated lazily on the first failure.
  std::vector<char> known_dead_;
};

}  // namespace poolnet::dim
