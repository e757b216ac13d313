// archive_paged: a central archive far larger than its buffer pool. The
// store does the work here (page faults and evictions, the grid-file page
// veto, the strided scan kernel, expiry compaction); the deployment is
// small, so routes are short and mostly cached.
#include <optional>

#include "inproc.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "storage/brute_force_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 100;
constexpr std::size_t kDims = 3;
constexpr std::uint64_t kPreload = 200'000;     ///< events before measuring
constexpr std::uint64_t kLiveWindow = 200'000;  ///< expiry keeps ~this many
constexpr std::uint64_t kExpireEvery = 20'000;  ///< inserts between expiries
constexpr std::uint64_t kQueryEvery = 200;      ///< one query per 200 ops
constexpr std::size_t kPoolPages = 256;         ///< 1 MiB pool, ~9 MiB data
/// Boxes larger than this share of the space are redrawn, so no single
/// answer dominates the run's memory peak.
constexpr double kMaxQueryVolume = 0.01;

struct ArchiveOp {
  OpKind kind = OpKind::Insert;
  net::NodeId node = 0;
  storage::Event event;
  std::optional<storage::RangeQuery> query;
  double cutoff = 0;
};

/// Inserts from random sources stamped with a logical clock; every
/// kExpireEvery-th insert is followed by expire_before(now - window);
/// every kQueryEvery-th op is an exact-match range query with exponential
/// side lengths (at most kMaxQueryVolume of the space) from a random sink.
class ArchiveStream {
 public:
  explicit ArchiveStream(std::uint64_t seed)
      : rng_(seed * 6151 + 7),
        events_(query::WorkloadConfig{}, seed * 3571 + 1),
        queries_(gen_config(), seed * 7907 + 2) {}

  /// The set-up inserts (detected_at 0 .. kPreload-1).
  storage::Event preload_event() { return stamped(); }

  ArchiveOp next() {
    ArchiveOp op;
    if (expire_due_) {
      expire_due_ = false;
      op.kind = OpKind::Expire;
      op.cutoff = static_cast<double>(clock_) - double(kLiveWindow);
      return op;
    }
    if (++count_ % kQueryEvery == 0) {
      op.kind = OpKind::Query;
      op.node = random_node();
      do {
        op.query = queries_.exact_range();
      } while (op.query->volume() > kMaxQueryVolume);
      return op;
    }
    op.event = stamped();
    op.node = op.event.source;
    expire_due_ = clock_ % kExpireEvery == 0;
    return op;
  }

 private:
  static query::QueryGenConfig gen_config() {
    query::QueryGenConfig c;
    c.dims = kDims;
    c.dist = query::RangeSizeDistribution::Exponential;
    return c;
  }
  net::NodeId random_node() {
    return static_cast<net::NodeId>(
        rng_.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
  }
  storage::Event stamped() {
    storage::Event e = events_.next(random_node());
    e.detected_at = static_cast<double>(clock_++);
    return e;
  }

  Rng rng_;
  query::EventGenerator events_;
  query::QueryGenerator queries_;
  std::uint64_t clock_ = 0;
  std::uint64_t count_ = 0;
  bool expire_due_ = false;
};

StackConfig stack_config(const RunArgs& args, Tracer* tracer) {
  StackConfig c;
  c.kind = StackKind::CentralPaged;
  c.nodes = kNodes;
  c.dims = kDims;
  c.tracer = tracer;
  c.paged.pool_pages = kPoolPages;
  c.paged.page_bytes = 4096;
  c.paged.backing = storage::PagedStoreOptions::Backing::File;
  c.paged.file_dir = args.work_dir;
  return c;
}

/// Builds the stack and preloads it; returns with `stream` positioned
/// after the preload.
std::unique_ptr<Stack> build(const RunArgs& args, Tracer* tracer,
                             ArchiveStream& stream) {
  auto stack = std::make_unique<Stack>(stack_config(args, tracer));
  const double t = now_s();
  for (std::uint64_t i = 0; i < kPreload; ++i) {
    const storage::Event e = stream.preload_event();
    stack->system().insert(e.source, e);
  }
  stack->network().reset_traffic();
  stack->reset_trace();
  stack->times().preload_s = now_s() - t;
  return stack;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

ChildResult measure(const RunArgs& args, bool traced, double seconds) {
  ChildResult out;
  out.digests.reserve(kSampleReserve);
  const double rss0 = current_rss_mb();
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  ArchiveStream stream(args.seed);
  std::unique_ptr<Stack> stack = build(args, tr, stream);
  out.values["setup_s"] = stack->times().total();

  Recorder rec(*stack, tr);
  storage::DcsSystem& sys = stack->system();
  const storage::PagerStats pager0 = stack->pager()->pager_stats();
  const double deadline = now_s() + seconds;
  while (now_s() < deadline) {
    const ArchiveOp op = stream.next();
    if (op.kind == OpKind::Insert) {
      rec.run(OpKind::Insert, [&] { sys.insert(op.node, op.event); });
    } else if (op.kind == OpKind::Expire) {
      std::size_t removed = 0;
      rec.run(OpKind::Expire, [&] { removed = sys.expire_before(op.cutoff); });
      out.digests.push_back(removed);
    } else {
      storage::QueryReceipt r;
      rec.run(OpKind::Query, [&] { r = sys.query(op.node, *op.query); });
      Scope check(tr, Layer::Check);
      rec.note_result(OpKind::Query, r.events.size(), r.index_nodes_visited);
      out.digests.push_back(digest_sorted(std::move(r.events)));
    }
  }
  rec.put_end_to_end(out);
  out.values["peak_rss_mb"] = peak_rss_mb() - rss0;
  const storage::PagedStore& pager = *stack->pager();
  out.values["bytes_per_event"] =
      per(double(pager.page_count() * pager.options().page_bytes),
          double(pager.stored_count()));
  if (!traced) return out;

  if (!args.trace_out.empty()) tracer.write(args.trace_out);
  rec.put_layers(out);
  const KindTotals& q = rec.totals(OpKind::Query);
  const KindTotals& ins = rec.totals(OpKind::Insert);
  const KindTotals& exp = rec.totals(OpKind::Expire);
  const storage::PagerStats p = pager.pager_stats();
  out.values["storage.query_self_us"] =
      rec.self_seconds(OpKind::Query, Layer::Storage) * 1e6 /
      std::max<double>(1, q.ops);
  out.values["storage.insert_self_us"] =
      rec.self_seconds(OpKind::Insert, Layer::Storage) * 1e6 /
      std::max<double>(1, ins.ops);
  out.values["storage.expire_ms"] =
      rec.self_seconds(OpKind::Expire, Layer::Storage) * 1e3 /
      std::max<double>(1, exp.ops);
  out.values["storage.rows_scanned_per_result"] =
      per(double(q.scan.rows_scanned), double(q.results));
  // A page is this store's block: fetched pages are pager hits + misses.
  out.values["storage.blocks_skipped_frac"] =
      per(double(q.scan.blocks_skipped),
          double(q.scan.blocks_skipped + q.pager_hits + q.pager_misses));
  out.values["storage.bytes_touched_per_query"] =
      per(double(q.scan.bytes_touched), double(q.ops));
  out.values["storage.pager.hit_rate"] =
      per(double(p.hits - pager0.hits),
          double(p.hits - pager0.hits + p.misses - pager0.misses));
  out.values["storage.pager.misses_per_query"] =
      per(double(q.pager_misses), double(q.ops));
  out.values["storage.pager.evictions_per_insert"] =
      per(double(ins.pager_evictions), double(ins.ops));
  out.values["storage.bytes_per_event"] = out.values["bytes_per_event"];
  out.values["routing.planarize_s"] = stack->times().planarize_s;
  out.values["net.build_s"] = stack->times().net_s;
  return out;
}

std::vector<std::uint64_t> reference(const RunArgs& args, std::uint64_t ops,
                                     unsigned part, unsigned parts) {
  storage::BruteForceStore oracle(kDims);
  ArchiveStream stream(args.seed);
  for (std::uint64_t i = 0; i < kPreload; ++i) {
    const storage::Event e = stream.preload_event();
    oracle.insert(e.source, e);
  }
  std::vector<std::uint64_t> digests;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const ArchiveOp op = stream.next();
    if (op.kind == OpKind::Insert)
      oracle.insert(op.node, op.event);
    else if (op.kind == OpKind::Expire)
      digests.push_back(oracle.expire_before(op.cutoff));
    else if (digests.size() % parts != part)
      digests.push_back(0);
    else
      digests.push_back(digest_sorted(oracle.matching(*op.query)));
  }
  return digests;
}

}  // namespace

Report run_archive(const RunArgs& args) {
  InprocWorkload w;
  w.measure = [&](bool traced, double seconds) {
    return measure(args, traced, seconds);
  };
  w.reference = [&](std::uint64_t ops, unsigned part, unsigned parts) {
    return reference(args, ops, part, parts);
  };
  return run_inprocess(args, w);
}

}  // namespace perfbench
