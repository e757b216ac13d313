// The common interface of data-centric storage systems.
//
// Pool (src/core), DIM (src/dim), GHT (src/ght) and the central stores
// (BruteForceStore, PagedStore) implement this, which is what lets the
// experiment driver, the server, the tests, and the benches treat the
// four systems symmetrically — the comparison methodology of Section 5.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "net/message.h"
#include "net/node.h"
#include "storage/aggregate.h"
#include "storage/event.h"
#include "storage/query_request.h"
#include "storage/range_query.h"

namespace poolnet::storage {

namespace column {
struct ScanStats;
}

/// The shared message-cost triple every receipt reports: total per-hop
/// transmissions, split into forwarding legs (query + subquery) and
/// reply legs. Receipts inherit it, so the triple is defined once and
/// receipts of different operations sum with operator+=.
struct CostBreakdown {
  std::uint64_t messages = 0;        ///< total per-hop transmissions
  std::uint64_t query_messages = 0;  ///< forwarding legs (query + subquery)
  std::uint64_t reply_messages = 0;  ///< reply legs

  CostBreakdown& operator+=(const CostBreakdown& other) {
    messages += other.messages;
    query_messages += other.query_messages;
    reply_messages += other.reply_messages;
    return *this;
  }
  friend CostBreakdown operator+(CostBreakdown a, const CostBreakdown& b) {
    a += b;
    return a;
  }

  /// Explicit view of the cost triple (handy when a receipt's other
  /// fields shadow the intent at a call site).
  CostBreakdown& cost() { return *this; }
  const CostBreakdown& cost() const { return *this; }
};

/// Classifies a traffic-ledger delta into the standard breakdown:
/// everything counts toward `messages`; Query + SubQuery legs are
/// forwarding, Reply legs are replies (Insert/Control traffic appears in
/// the total only, matching the paper's accounting).
inline CostBreakdown cost_of(const net::TrafficTally& delta) {
  CostBreakdown c;
  c.messages = delta.total;
  c.query_messages = delta.of(net::MessageKind::Query) +
                     delta.of(net::MessageKind::SubQuery);
  c.reply_messages = delta.of(net::MessageKind::Reply);
  return c;
}

/// Cost breakdown of one insertion (`messages` is the only leg kind an
/// insert charges; the query/reply fields stay zero).
struct InsertReceipt : CostBreakdown {
  net::NodeId stored_at = net::kNoNode;  ///< node now holding the event
};

/// The base every query-shaped receipt shares: the cost triple plus the
/// storage-node visit count. Receipts of any class sum with operator+=
/// (cost AND visits), so engines accumulate them without knowing which
/// concrete receipt they hold.
struct ResultReceipt : CostBreakdown {
  std::size_t index_nodes_visited = 0;  ///< storage nodes that processed it

  ResultReceipt& operator+=(const ResultReceipt& other) {
    cost() += other.cost();
    index_nodes_visited += other.index_nodes_visited;
    return *this;
  }
};

/// Result and cost breakdown of one aggregate query.
struct AggregateReceipt : ResultReceipt {
  AggregateResult result;
};

/// Result and cost breakdown of one query of any class (range, skyline,
/// k-nearest — see QueryRequest and DcsSystem::execute).
struct QueryReceipt : ResultReceipt {
  std::vector<Event> events;  ///< qualifying events
  std::size_t rounds = 0;     ///< expanding-search rounds (k-NN only)
};

/// Result of one merged multi-query execution (see query_batch).
struct BatchQueryReceipt : ResultReceipt {
  /// One receipt per input query, in input order. `events` is identical
  /// (content AND order) to what a serial query() from the same sink
  /// would have returned, and `index_nodes_visited` is that query's own
  /// relevant-visit count. The per-receipt message fields stay zero in
  /// merging implementations — transport cost is shared and reported only
  /// in the batch totals below.
  std::vector<QueryReceipt> per_query;

  std::size_t serial_cell_visits = 0;  ///< Σ per-query relevant visits
  std::size_t unique_cell_visits = 0;  ///< deduped visits actually made

  /// Per-hop transmissions a serial per-query execution would have
  /// charged, minus what the merged execution charged, priced from the
  /// hop counts of the legs the merged walk took. Exact when the batch
  /// ran on loss-free links and saw no retry, failed leg or failover;
  /// clamped at 0 otherwise, where retransmissions and repairs make the
  /// comparison inexact (see Legs::settle).
  std::uint64_t messages_saved = 0;
};

/// Online fault-tolerance counters. All stay zero on a fully-alive
/// network; they track the degradation a fault plan inflicts mid-run.
struct FaultStats {
  std::uint64_t failovers = 0;        ///< index re-elections / zone adoptions / re-homings
  std::uint64_t events_lost = 0;      ///< stored events destroyed with their holder
  std::uint64_t events_restored = 0;  ///< re-materialized from surviving mirrors
  std::uint64_t retries = 0;          ///< delivery retries after ack timeouts
  std::uint64_t failed_legs = 0;      ///< messages abandoned after the retry budget

  bool operator==(const FaultStats&) const = default;
};

/// A deployed DCS system bound to a Network. insert() stores a detected
/// event at the node the scheme maps it to; query() retrieves every stored
/// event matching the query and charges all forwarding and reply traffic
/// to the network ledger.
class DcsSystem {
 public:
  virtual ~DcsSystem() = default;

  virtual std::string name() const = 0;

  /// One-line, human-readable scheme summary with its deployment
  /// parameters — e.g. "Pool (l=10, alpha=5, dims=3)" — for CLI and
  /// bench banners, so callers never switch over concrete types to
  /// print a header. Defaults to name().
  virtual std::string describe() const { return name(); }

  /// Dimensionality this deployment is configured for.
  virtual std::size_t dims() const = 0;

  /// Store `event`, detected at `source`. Routing costs are charged to the
  /// network ledger and reported in the receipt.
  virtual InsertReceipt insert(net::NodeId source, const Event& event) = 0;

  /// Evaluate `query` issued at `sink`; returns qualifying events plus the
  /// message cost (forwarding + retrieval, the paper's metric).
  virtual QueryReceipt query(net::NodeId sink, const RangeQuery& query) = 0;

  /// Evaluate one request of any class (the unified entry point — call
  /// sites that don't care which class they hold route through here).
  /// Non-virtual by design: systems customize per class via the query /
  /// skyline / k_nearest virtuals, so dispatch stays in one place.
  QueryReceipt execute(net::NodeId sink, const QueryRequest& request);

  /// Skyline on the selected attribute subset: every stored event no
  /// other stored event dominates, canonically ordered by ascending id.
  /// The default floods — a full-space range query filtered at the sink
  /// — which is correct for any implementation; the built-in systems
  /// override it with distributed dominance pruning (a cell or zone whose
  /// best corner is strictly dominated by a collected event is never
  /// visited).
  virtual QueryReceipt skyline(net::NodeId sink, const SkylineQuery& query);

  /// The k stored events nearest to the query target in attribute space,
  /// ordered by (distance, id). The default floods and filters at the
  /// sink; the built-in systems override it with an expanding box search
  /// that stops once the k-th best distance is inside the covered shell.
  virtual QueryReceipt k_nearest(net::NodeId sink, const KNearestQuery& query);

  /// Evaluate several queries issued together from one sink as a single
  /// merged dissemination. Every per-query result set must be identical
  /// (content and order) to a serial query() call; only the transport may
  /// be shared. The default runs the queries serially — no sharing, so
  /// messages_saved stays 0 — which keeps third-party DcsSystem
  /// implementations correct without opting into merging.
  virtual BatchQueryReceipt query_batch(net::NodeId sink,
                                        const std::vector<RangeQuery>& queries) {
    BatchQueryReceipt batch;
    batch.per_query.reserve(queries.size());
    for (const RangeQuery& q : queries) {
      QueryReceipt r = query(sink, q);
      batch += r;  // ResultReceipt::+= folds cost and visits together
      batch.serial_cell_visits += r.index_nodes_visited;
      batch.unique_cell_visits += r.index_nodes_visited;
      batch.per_query.push_back(std::move(r));
    }
    return batch;
  }

  /// Evaluate an aggregate of attribute `value_dim` over the events
  /// matching `query` (Section 3.2.3). Storage nodes reply with mergeable
  /// partial aggregates instead of raw events; schemes with in-network
  /// merge points (Pool's splitters) collapse reply traffic further.
  virtual AggregateReceipt aggregate(net::NodeId sink, const RangeQuery& query,
                                     AggregateKind kind,
                                     std::size_t value_dim) = 0;

  /// Total events currently stored across all nodes.
  virtual std::size_t stored_count() const = 0;

  /// Data aging: every storage node locally discards events detected
  /// before `cutoff` (timer-driven and local, so it costs no messages).
  /// Returns the number of primary events removed.
  virtual std::size_t expire_before(double cutoff) = 0;

  /// Online failover: the system has learned (via exhausted ack budgets,
  /// see routing::send_reliable) that `dead` stopped responding, and must
  /// repair its index structures so the node is never addressed again —
  /// WITHOUT rebuilding the deployment. Idempotent per node. The default
  /// is a system with no fault tolerance.
  virtual void handle_node_failure(net::NodeId dead) { (void)dead; }

  /// Liveness epoch of the network under this system: it grows with every
  /// node the network loses (net::Network::kill), handled or silent, and
  /// never shrinks. A result cached under an older epoch may hold events
  /// a kill has since lost. 0 for a system without a network.
  virtual std::size_t liveness_epoch() const { return 0; }

  const FaultStats& fault_stats() const { return fault_stats_; }

  /// Columnar scan-kernel counters aggregated across this system's stores
  /// (rows_scanned / blocks_skipped / bytes_touched), or null for systems
  /// without columnar backing. Published at scrape time as
  /// `<system>.store.scan.*`.
  virtual const column::ScanStats* scan_stats() const { return nullptr; }

 protected:
  /// query() for systems whose merged batch walk is their only range
  /// path: a batch of one, returned as its member's events and visits
  /// with the batch's cost triple.
  QueryReceipt batch_of_one(net::NodeId sink, const RangeQuery& query) {
    BatchQueryReceipt batch = query_batch(sink, {query});
    QueryReceipt receipt = std::move(batch.per_query.front());
    receipt.cost() = batch.cost();
    return receipt;
  }

  FaultStats fault_stats_;
};

}  // namespace poolnet::storage
