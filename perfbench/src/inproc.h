// The shape shared by the in-process workloads (ingest_100k,
// archive_paged, batch_dim): a seeded operation stream driven against one
// Stack in a forked child, checked in the parent against a reference that
// replays the same stream.
//
// Untraced (--trace 0): kMeasuredChildren children run one after another,
// each for an equal share of --seconds in a fresh process on a fresh
// stack. Every metric is the median over the children, so one child that
// drew a slow memory placement or a noisy stretch of the host moves it
// little. Each child's set-up is one set-up sample.
// Traced (--trace 1): one child alternates untraced and traced blocks of
// operations on the same stack, so the tracing overhead and the share of
// the untraced time the layers account for are measured side by side.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "net/message.h"
#include "stacks.h"
#include "storage/column/column_store.h"
#include "support.h"
#include "trace.h"

namespace perfbench {

enum class OpKind : std::uint8_t { Insert, Query, Expire, Batch, kCount };
constexpr std::size_t kKinds = static_cast<std::size_t>(OpKind::kCount);
static_assert(kKinds <= kGroups, "each kind books into its own group");

/// Capacity reserved up front for the per-query sample and digest vectors
/// of a measured process. Untouched reserved pages are not resident, so
/// these vectors add to the process's peak RSS page by page as they fill,
/// not in capacity doublings that would swing peak_rss_mb between runs.
constexpr std::size_t kSampleReserve = std::size_t{1} << 22;

/// Per-operation-kind totals of one side (untraced or traced) of a run.
struct KindTotals {
  std::uint64_t ops = 0;
  double wall_s = 0;
  net::TrafficTally traffic;
  RouteCounts probe, gpsr;
  std::uint64_t pager_hits = 0, pager_misses = 0, pager_evictions = 0;
  storage::column::ScanStats scan;
  std::uint64_t queries = 0;  ///< queries answered
  std::uint64_t results = 0;
  std::uint64_t visits = 0;
};

/// Times operations against a stack and keeps the per-kind books. With a
/// tracer, operations alternate in blocks of kTraceBlock between untraced
/// and traced; a traced operation opens the root Op span, and route, pager
/// and scan counters are snapshotted around every operation.
class Recorder {
 public:
  static constexpr std::uint64_t kTraceBlock = 64;

  Recorder(Stack& stack, Tracer* tracer) : stack_(stack), tracer_(tracer) {
    latencies_.reserve(kSampleReserve);
  }

  /// Runs `fn` as one operation of `kind`.
  template <typename Fn>
  void run(OpKind kind, Fn&& fn) {
    traced_ = tracer_ && ops_ / kTraceBlock % 2 == 1;
    if (tracer_) {
      tracer_->set_enabled(traced_);
      if (traced_) tracer_->next_op(static_cast<std::size_t>(kind));
    }
    const Snapshot before = snapshot();
    const double t0 = now_s();
    {
      Scope op(tracer_, Layer::Op);
      fn();
    }
    const double dt = now_s() - t0;
    ++ops_;
    Scope check(tracer_, Layer::Check);
    account(kind, dt, before);
  }

  /// Records one query answered by the last operation, of `kind`, with
  /// its latency (OpKind::Query operations record their own).
  void note_latency(OpKind kind, double seconds);

  /// Counts a query's result size and storage visits under `kind`.
  void note_result(OpKind kind, std::size_t results, std::size_t visits) {
    side()[static_cast<std::size_t>(kind)].results += results;
    side()[static_cast<std::size_t>(kind)].visits += visits;
  }

  /// The books of the traced operations in a traced run, else of all.
  const KindTotals& totals(OpKind kind) const {
    return books_[tracer_ ? 1 : 0][static_cast<std::size_t>(kind)];
  }
  std::uint64_t ops() const { return ops_; }

  /// Self seconds of `layer` within traced operations of `kind`.
  double self_seconds(OpKind kind, Layer layer) const {
    return tracer_->self_seconds(static_cast<std::size_t>(kind), layer);
  }

  /// Writes the end-to-end values of the untraced operations: query
  /// latency percentiles and rate, insert rate (expiry included),
  /// messages per query and per insert. The rates leave out the share of
  /// the run the hypervisor stole from the process's CPU; latencies are
  /// the operations' wall times.
  void put_end_to_end(ChildResult& out) const;

  /// Writes the routing, net and trace-consistency values of a traced run.
  void put_layers(ChildResult& out) const;

 private:
  struct Snapshot {
    net::TrafficTally traffic;
    RouteCounts probe, gpsr;
    std::uint64_t pager_hits = 0, pager_misses = 0, pager_evictions = 0;
    storage::column::ScanStats scan;
  };
  using Books = std::array<KindTotals, kKinds>;

  Snapshot snapshot() const;
  void account(OpKind kind, double dt, const Snapshot& before);
  Books& side() { return books_[traced_ ? 1 : 0]; }

  Stack& stack_;
  Tracer* tracer_;
  StealClock steal_;  ///< from the first operation on
  std::array<Books, 2> books_{};   ///< [0] untraced, [1] traced operations
  std::vector<double> latencies_;  ///< of the untraced queries
  bool traced_ = false;            ///< whether the last operation was traced
  std::uint64_t ops_ = 0;
};

/// A workload's hooks for run_inprocess.
struct InprocWorkload {
  /// The measured phase: builds the stack, runs the stream for `seconds`
  /// and reports values plus one digest per checked operation. Must
  /// report "ops" and "setup_s".
  std::function<ChildResult(bool traced, double seconds)> measure;
  /// Reference digests for the checked operations among the first `ops`.
  /// Only entries whose index is `part` modulo `parts` need be computed
  /// (the rest may be 0): the replays run in parallel.
  std::function<std::vector<std::uint64_t>(std::uint64_t ops, unsigned part,
                                           unsigned parts)>
      reference;
};

Report run_inprocess(const RunArgs& args, const InprocWorkload& w);

}  // namespace perfbench
