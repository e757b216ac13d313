#include "inproc.h"

#include <algorithm>
#include <map>
#include <string>

namespace perfbench {

namespace {

std::size_t idx(OpKind k) { return static_cast<std::size_t>(k); }
std::size_t idx(Layer l) { return static_cast<std::size_t>(l); }

RouteCounts minus(const RouteCounts& a, const RouteCounts& b) {
  return {a.calls - b.calls, a.hops - b.hops,
          a.perimeter_hops - b.perimeter_hops};
}

void add(RouteCounts& into, const RouteCounts& d) {
  into.calls += d.calls;
  into.hops += d.hops;
  into.perimeter_hops += d.perimeter_hops;
}

void add(net::TrafficTally& into, const net::TrafficTally& d) {
  for (std::size_t i = 0; i < into.by_kind.size(); ++i)
    into.by_kind[i] += d.by_kind[i];
  into.total += d.total;
  into.lost += d.lost;
  into.energy_j += d.energy_j;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

Recorder::Snapshot Recorder::snapshot() const {
  Snapshot s;
  s.traffic = stack_.network().traffic();
  if (!tracer_) return s;
  s.probe = stack_.probe_timer()->counts();
  s.gpsr = stack_.gpsr_timer()->counts();
  if (const storage::PagedStore* pager = stack_.pager()) {
    const storage::PagerStats p = pager->pager_stats();
    s.pager_hits = p.hits;
    s.pager_misses = p.misses;
    s.pager_evictions = p.evictions;
  }
  if (const auto* scan = stack_.system().scan_stats()) s.scan = *scan;
  return s;
}

void Recorder::account(OpKind kind, double dt, const Snapshot& before) {
  KindTotals& t = side()[idx(kind)];
  ++t.ops;
  t.wall_s += dt;
  if (kind == OpKind::Query) note_latency(kind, dt);
  const Snapshot after = snapshot();
  add(t.traffic, after.traffic - before.traffic);
  if (!tracer_) return;
  add(t.probe, minus(after.probe, before.probe));
  add(t.gpsr, minus(after.gpsr, before.gpsr));
  t.pager_hits += after.pager_hits - before.pager_hits;
  t.pager_misses += after.pager_misses - before.pager_misses;
  t.pager_evictions += after.pager_evictions - before.pager_evictions;
  t.scan.rows_scanned += after.scan.rows_scanned - before.scan.rows_scanned;
  t.scan.blocks_skipped +=
      after.scan.blocks_skipped - before.scan.blocks_skipped;
  t.scan.bytes_touched += after.scan.bytes_touched - before.scan.bytes_touched;
}

void Recorder::note_latency(OpKind kind, double seconds) {
  ++side()[idx(kind)].queries;
  if (!traced_) latencies_.push_back(seconds);
}

void Recorder::put_end_to_end(ChildResult& out) const {
  const Books& b = books_[0];
  const KindTotals& q = b[idx(OpKind::Query)];
  const KindTotals& batch = b[idx(OpKind::Batch)];
  const KindTotals& ins = b[idx(OpKind::Insert)];
  const KindTotals& exp = b[idx(OpKind::Expire)];
  const double queries = static_cast<double>(q.queries + batch.queries);
  // Stolen time falls on the operations in proportion to their wall time.
  const double steal = steal_.share();
  const double run = 1.0 - steal;
  out.values["steal_share"] = steal;
  out.values["queries"] = queries;
  out.values["inserts"] = static_cast<double>(ins.ops);
  out.values["query_p50_ms"] = percentile(latencies_, 50) * 1e3;
  out.values["query_p99_ms"] = percentile(latencies_, 99) * 1e3;
  out.values["queries_per_s"] = per(queries, (q.wall_s + batch.wall_s) * run);
  out.values["inserts_per_s"] =
      per(static_cast<double>(ins.ops), (ins.wall_s + exp.wall_s) * run);
  out.values["messages_per_query"] =
      per(static_cast<double>(q.traffic.total + batch.traffic.total), queries);
  out.values["messages_per_insert"] =
      per(static_cast<double>(ins.traffic.total), static_cast<double>(ins.ops));
  out.values["ops"] = static_cast<double>(ops_);
}

void Recorder::put_layers(ChildResult& out) const {
  const Books& plain = books_[0];
  const Books& traced = books_[1];
  RouteCounts probe, gpsr, probe_q;
  net::TrafficTally query_traffic;
  for (const KindTotals& t : traced) {
    add(probe, t.probe);
    add(gpsr, t.gpsr);
  }
  for (OpKind k : {OpKind::Query, OpKind::Batch}) {
    add(probe_q, traced[idx(k)].probe);
    add(query_traffic, traced[idx(k)].traffic);
  }
  const KindTotals& ins = traced[idx(OpKind::Insert)];
  const double queries = static_cast<double>(
      traced[idx(OpKind::Query)].queries + traced[idx(OpKind::Batch)].queries);
  std::array<double, kLayers> total{};
  for (std::size_t k = 0; k < kKinds; ++k)
    for (std::size_t l = 0; l < kLayers; ++l)
      total[l] += tracer_->self_seconds(k, static_cast<Layer>(l));

  out.values["routing.calls_per_query"] =
      per(static_cast<double>(probe_q.calls), queries);
  out.values["routing.calls_per_insert"] =
      per(static_cast<double>(ins.probe.calls), static_cast<double>(ins.ops));
  out.values["routing.gpsr_calls_per_insert"] =
      per(static_cast<double>(ins.gpsr.calls), static_cast<double>(ins.ops));
  out.values["routing.probe_us"] =
      per(total[idx(Layer::RoutingProbe)] * 1e6, double(probe.calls));
  out.values["routing.gpsr_us_per_miss"] =
      per(total[idx(Layer::RoutingGpsr)] * 1e6, double(gpsr.calls));
  out.values["routing.hops_per_call"] =
      per(double(probe.hops), double(probe.calls));
  out.values["routing.perimeter_hop_frac"] =
      per(double(probe.perimeter_hops), double(probe.hops));
  out.values["routing.cache_hit_rate"] =
      probe.calls ? 1.0 - per(double(gpsr.calls), double(probe.calls)) : 0.0;
  out.values["net.query_messages_per_query"] =
      per(double(query_traffic.of(net::MessageKind::Query) +
                 query_traffic.of(net::MessageKind::SubQuery)),
          queries);
  out.values["net.reply_messages_per_query"] =
      per(double(query_traffic.of(net::MessageKind::Reply)), queries);

  // What the traced operations would have taken untraced: each kind's
  // traced count at the mean cost of the same kind's untraced operations
  // interleaved with them. The layer self times are held against it, so
  // work inside an operation that no layer span covers, or tracing that
  // distorts the figures, shows up.
  double untraced_s = 0, traced_s = 0;
  for (std::size_t k = 0; k < kKinds; ++k) {
    const KindTotals& p = plain[k].ops ? plain[k] : traced[k];
    const double mean = per(p.wall_s, double(p.ops));
    untraced_s += double(traced[k].ops) * mean;
    traced_s += traced[k].wall_s;
  }
  double layers = 0;
  for (std::size_t l = 0; l < kLayers; ++l)
    if (l != idx(Layer::Op) && l != idx(Layer::Check)) layers += total[l];
  out.values["trace.layer_sum_frac"] = per(layers, untraced_s);
  out.values["trace.overhead_frac"] = per(traced_s, untraced_s);
}

namespace {

/// Reference digests from kReferenceWorkers forked replays, each of which
/// checks every kReferenceWorkers-th operation.
constexpr unsigned kReferenceWorkers = 3;
/// Sequential measured children of an untraced run.
constexpr unsigned kMeasuredChildren = 10;

std::vector<std::uint64_t> reference(const InprocWorkload& w,
                                     std::uint64_t ops) {
  std::vector<std::function<ChildResult()>> parts;
  for (unsigned part = 0; part < kReferenceWorkers; ++part)
    parts.push_back([&w, ops, part] {
      ChildResult r;
      r.digests = w.reference(ops, part, kReferenceWorkers);
      return r;
    });
  const std::vector<ChildResult> got = run_forked_all(parts);
  std::vector<std::uint64_t> merged(got[0].digests.size());
  for (std::size_t i = 0; i < merged.size(); ++i)
    merged[i] = got[i % kReferenceWorkers].digests.at(i);
  return merged;
}

/// Mismatches of a child's digests against the reference for a longer or
/// equal stretch of the same stream: the child's are a prefix of it.
std::uint64_t prefix_mismatches(const std::vector<std::uint64_t>& got,
                                const std::vector<std::uint64_t>& want) {
  if (got.size() > want.size()) return count_mismatches(got, want);
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < got.size(); ++i) bad += got[i] != want[i];
  return bad;
}

}  // namespace

Report run_inprocess(const RunArgs& args, const InprocWorkload& w) {
  Report report;
  if (args.trace) {
    const ChildResult t =
        run_forked([&] { return w.measure(true, args.seconds); });
    const auto ops = static_cast<std::uint64_t>(t.at("ops"));
    report.failed = count_mismatches(t.digests, reference(w, ops));
    report.attempted = ops;
    report.values = t.values;
    return report;
  }
  std::vector<ChildResult> children;
  std::uint64_t max_ops = 0;
  for (unsigned i = 0; i < kMeasuredChildren; ++i) {
    children.push_back(run_forked(
        [&] { return w.measure(false, args.seconds / kMeasuredChildren); }));
    const auto ops = static_cast<std::uint64_t>(children.back().at("ops"));
    report.attempted += ops;
    max_ops = std::max(max_ops, ops);
  }
  const std::vector<std::uint64_t> ref = reference(w, max_ops);
  std::map<std::string, std::vector<double>> samples;
  for (const ChildResult& c : children) {
    report.failed += prefix_mismatches(c.digests, ref);
    for (const auto& [name, v] : c.values) samples[name].push_back(v);
    std::string line = "child";
    for (const char* name :
         {"queries", "setup_s", "query_p50_ms", "query_p99_ms",
          "queries_per_s", "inserts_per_s", "peak_rss_mb", "steal_share"})
      line += std::string(" ") + name + "=" + std::to_string(c.at(name));
    report.note(line);
  }
  for (const auto& [name, v] : samples) report.set(name, median(v));
  return report;
}

}  // namespace perfbench
