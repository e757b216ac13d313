// ingest_100k: the scale tier. Routing dominates here (long GPSR routes
// from random sources, mostly cache misses) and planarization sits in the
// set-up time.
#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "inproc.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "storage/brute_force_store.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 100'000;
constexpr std::size_t kDims = 3;
constexpr std::uint64_t kQueryEvery = 8;  ///< one range query per 8 ops

struct IngestOp {
  OpKind kind = OpKind::Insert;
  net::NodeId node = 0;
  storage::Event event;
  std::optional<storage::RangeQuery> query;
};

/// Inserts visit every node once in a seeded random order (then a fresh
/// order); every kQueryEvery-th operation is an exact-match range query
/// with exponential side lengths (Fig. 6b) from a random sink.
class IngestStream {
 public:
  explicit IngestStream(std::uint64_t seed)
      : rng_(seed * 7919 + 11),
        events_(query::WorkloadConfig{}, seed * 104729 + 5),
        queries_(gen_config(), seed * 1299709 + 3) {}

  IngestOp next() {
    IngestOp op;
    if (++count_ % kQueryEvery == 0) {
      op.kind = OpKind::Query;
      op.node = static_cast<net::NodeId>(
          rng_.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1));
      op.query = queries_.exact_range();
      return op;
    }
    if (pos_ == order_.size()) reshuffle();
    op.node = order_[pos_++];
    op.event = events_.next(op.node);
    return op;
  }

 private:
  static query::QueryGenConfig gen_config() {
    query::QueryGenConfig c;
    c.dims = kDims;
    c.dist = query::RangeSizeDistribution::Exponential;
    return c;
  }
  void reshuffle() {
    order_.resize(kNodes);
    for (std::size_t i = 0; i < kNodes; ++i)
      order_[i] = static_cast<net::NodeId>(i);
    std::shuffle(order_.begin(), order_.end(), rng_);
    pos_ = 0;
  }

  Rng rng_;
  query::EventGenerator events_;
  query::QueryGenerator queries_;
  std::vector<net::NodeId> order_;
  std::size_t pos_ = 0;
  std::uint64_t count_ = 0;
};

StackConfig stack_config(Tracer* tracer) {
  StackConfig c;
  c.kind = StackKind::Pool;
  c.nodes = kNodes;
  c.dims = kDims;
  c.tracer = tracer;
  return c;
}

ChildResult measure(const RunArgs& args, bool traced, double seconds) {
  ChildResult out;
  out.digests.reserve(kSampleReserve);
  const double rss0 = current_rss_mb();
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  Stack stack(stack_config(tr));
  out.values["setup_s"] = stack.times().total();
  stack.reset_trace();

  Recorder rec(stack, tr);
  IngestStream stream(args.seed);
  storage::DcsSystem& sys = stack.system();
  const double deadline = now_s() + seconds;
  while (now_s() < deadline) {
    const IngestOp op = stream.next();
    if (op.kind == OpKind::Insert) {
      rec.run(OpKind::Insert, [&] { sys.insert(op.node, op.event); });
      continue;
    }
    storage::QueryReceipt r;
    rec.run(OpKind::Query, [&] { r = sys.query(op.node, *op.query); });
    Scope check(tr, Layer::Check);
    rec.note_result(OpKind::Query, r.events.size(), r.index_nodes_visited);
    out.digests.push_back(digest_sorted(std::move(r.events)));
  }
  rec.put_end_to_end(out);
  out.values["peak_rss_mb"] = peak_rss_mb() - rss0;
  if (!traced) return out;

  if (!args.trace_out.empty()) tracer.write(args.trace_out);
  rec.put_layers(out);
  const KindTotals& q = rec.totals(OpKind::Query);
  const KindTotals& ins = rec.totals(OpKind::Insert);
  out.values["core.query_self_us"] =
      rec.self_seconds(OpKind::Query, Layer::Core) * 1e6 /
      std::max<double>(1, q.ops);
  out.values["core.insert_self_us"] =
      rec.self_seconds(OpKind::Insert, Layer::Core) * 1e6 /
      std::max<double>(1, ins.ops);
  out.values["core.visits_per_query"] =
      static_cast<double>(q.visits) / std::max<double>(1, q.ops);
  out.values["core.build_s"] = stack.times().system_s;
  out.values["routing.planarize_s"] = stack.times().planarize_s;
  out.values["net.build_s"] = stack.times().net_s;
  out.values["storage.rows_scanned_per_result"] =
      static_cast<double>(q.scan.rows_scanned) /
      std::max<double>(1, q.results);
  out.values["storage.bytes_touched_per_query"] =
      static_cast<double>(q.scan.bytes_touched) / std::max<double>(1, q.ops);
  return out;
}

std::vector<std::uint64_t> reference(const RunArgs& args, std::uint64_t ops,
                                     unsigned part, unsigned parts) {
  storage::BruteForceStore oracle(kDims);
  IngestStream stream(args.seed);
  std::vector<std::uint64_t> digests;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const IngestOp op = stream.next();
    if (op.kind == OpKind::Insert)
      oracle.insert(op.node, op.event);
    else if (digests.size() % parts != part)
      digests.push_back(0);
    else
      digests.push_back(digest_sorted(oracle.matching(*op.query)));
  }
  return digests;
}

constexpr double kInjectedSlowdown = 0.10;  ///< self-test target
constexpr double kDelayTolerance = 0.20;     ///< on the GPSR time rise
constexpr double kShareTolerance = 0.30;     ///< on the insert slowdown

}  // namespace

Report run_ingest_selftest(const RunArgs& args) {
  Tracer tracer;
  StackConfig config = stack_config(&tracer);
  config.delay_router = true;  // its delay is set per operation below
  Stack stack(config);
  stack.reset_trace();
  storage::DcsSystem& sys = stack.system();
  IngestStream stream(args.seed);

  struct Side {
    double insert_s = 0;
    std::uint64_t inserts = 0, gpsr_calls = 0;
  };
  std::array<Side, 2> side{};  // [0] delay off, [1] delay on
  auto run_op = [&](int on) {
    const IngestOp op = stream.next();
    tracer.next_op(static_cast<std::size_t>(on));
    if (op.kind == OpKind::Query) {
      Scope span(&tracer, Layer::Op);
      sys.query(op.node, *op.query);
      return;
    }
    const std::uint64_t calls = stack.gpsr_timer()->counts().calls;
    const double t0 = now_s();
    {
      Scope span(&tracer, Layer::Op);
      sys.insert(op.node, op.event);
    }
    side[on].insert_s += now_s() - t0;
    ++side[on].inserts;
    side[on].gpsr_calls += stack.gpsr_timer()->counts().calls - calls;
  };

  // Calibrate with the delay off: mean insert time and GPSR computations
  // per insert give the delay that slows inserts by kInjectedSlowdown.
  for (const double end = now_s() + args.seconds / 4; now_s() < end;) run_op(0);
  const double t_off = side[0].insert_s / double(side[0].inserts);
  const double misses = double(side[0].gpsr_calls) / double(side[0].inserts);
  const double delay_s = kInjectedSlowdown * t_off / misses;

  // Alternate delayed and undelayed blocks of kQueryEvery operations (one
  // query each), so both sides see the same mix on the same machine at
  // the same time.
  side = {};
  tracer.clear();
  std::uint64_t i = 0;
  for (const double end = now_s() + args.seconds * 3 / 4; now_s() < end;) {
    const int on = static_cast<int>(i++ / kQueryEvery % 2);
    stack.delay()->set_delay_ns(
        on ? static_cast<std::int64_t>(delay_s * 1e9) : 0);
    run_op(on);
  }
  // GPSR spans have no children: their self time is their duration.
  Report report;
  auto us = [](double s) { return s * 1e6; };
  auto gpsr_us = [&](std::size_t on) {
    return us(tracer.self_seconds(on, Layer::RoutingGpsr) /
              double(tracer.span_count(on, Layer::RoutingGpsr)));
  };
  const double gpsr_off = gpsr_us(0);
  const double gpsr_on = gpsr_us(1);
  const double insert_off = us(side[0].insert_s / double(side[0].inserts));
  const double insert_on = us(side[1].insert_s / double(side[1].inserts));
  const double calls_on = double(side[1].gpsr_calls) / double(side[1].inserts);
  const double predicted = calls_on * us(delay_s) / insert_off;
  const double measured = insert_on / insert_off - 1;
  report.set("selftest.delay_us", us(delay_s));
  report.set("selftest.gpsr_us_per_miss_off", gpsr_off);
  report.set("selftest.gpsr_us_per_miss_on", gpsr_on);
  report.set("selftest.gpsr_calls_per_insert", calls_on);
  report.set("selftest.insert_us_off", insert_off);
  report.set("selftest.insert_us_on", insert_on);
  report.set("selftest.predicted_slowdown", predicted);
  report.set("selftest.measured_slowdown", measured);
  report.set("selftest.inserts_per_s_drop", 1 - insert_off / insert_on);
  const bool rise_ok = std::fabs((gpsr_on - gpsr_off) - us(delay_s)) <=
                       kDelayTolerance * us(delay_s);
  const bool share_ok =
      std::fabs(measured - predicted) <= kShareTolerance * predicted;
  report.note(std::string("GPSR time per miss rose by the injected delay: ") +
              (rise_ok ? "yes" : "NO"));
  report.note(std::string("insert slowdown matches routing's share: ") +
              (share_ok ? "yes" : "NO"));
  report.attempted = 2;
  report.failed = !rise_ok + !share_ok;
  return report;
}

Report run_ingest(const RunArgs& args) {
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
