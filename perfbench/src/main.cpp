// perfbench — the repository's benchmark driver.
//
//   perfbench --workload <ingest_100k|archive_paged|batch_dim|selftest>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--trace-out <csv>]
//
// Prints the host fingerprint, every metric with its unit, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set; the selftest workload reports its own attribution
// figures. Exits 1 when any answer is wrong, a traced run misses a
// metric of a layer its workload exercises, or the trace-consistency
// check fails; 2 on bad arguments. perfbench/run.py builds and runs it.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <string>
#include <vector>

#include "support.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json; run.py checks the printed names against it.
const std::vector<Metric> kEndToEnd = {
    {"setup_s", "s"},
    {"query_p50_ms", "ms"},
    {"query_p99_ms", "ms"},
    {"queries_per_s", "1/s"},
    {"inserts_per_s", "1/s"},
    {"messages_per_query", "msgs"},
    {"messages_per_insert", "msgs"},
    {"peak_rss_mb", "MB"},
};

const std::vector<Metric> kPerLayer = {
    {"server.parse_us", "us"},
    {"server.encode_us", "us"},
    {"server.result_bytes", "bytes"},
    {"engine.self_us", "us"},
    {"engine.cache_hit_rate", "ratio"},
    {"engine.dedup_ratio", "ratio"},
    {"engine.batch_occupancy", "queries"},
    {"engine.messages_saved_per_query", "msgs"},
    {"core.query_self_us", "us"},
    {"core.insert_self_us", "us"},
    {"core.visits_per_query", "nodes"},
    {"core.build_s", "s"},
    {"dim.query_self_us", "us"},
    {"dim.batch_self_us", "us"},
    {"dim.insert_self_us", "us"},
    {"dim.visits_per_query", "nodes"},
    {"routing.calls_per_query", "calls"},
    {"routing.calls_per_insert", "calls"},
    {"routing.gpsr_calls_per_insert", "calls"},
    {"routing.probe_us", "us"},
    {"routing.gpsr_us_per_miss", "us"},
    {"routing.hops_per_call", "hops"},
    {"routing.perimeter_hop_frac", "ratio"},
    {"routing.cache_hit_rate", "ratio"},
    {"routing.planarize_s", "s"},
    {"net.build_s", "s"},
    {"net.query_messages_per_query", "msgs"},
    {"net.reply_messages_per_query", "msgs"},
    {"storage.query_self_us", "us"},
    {"storage.insert_self_us", "us"},
    {"storage.expire_ms", "ms"},
    {"storage.rows_scanned_per_result", "rows"},
    {"storage.blocks_skipped_frac", "ratio"},
    {"storage.bytes_touched_per_query", "bytes"},
    {"storage.pager.hit_rate", "ratio"},
    {"storage.pager.misses_per_query", "count"},
    {"storage.pager.evictions_per_insert", "count"},
    {"storage.bytes_per_event", "bytes"},
    {"trace.overhead_frac", "ratio"},
    {"trace.layer_sum_frac", "ratio"},
};

const std::vector<Metric> kSelfTest = {
    {"selftest.delay_us", "us"},
    {"selftest.gpsr_us_per_miss_off", "us"},
    {"selftest.gpsr_us_per_miss_on", "us"},
    {"selftest.gpsr_calls_per_insert", "calls"},
    {"selftest.insert_us_off", "us"},
    {"selftest.insert_us_on", "us"},
    {"selftest.predicted_slowdown", "ratio"},
    {"selftest.measured_slowdown", "ratio"},
    {"selftest.inserts_per_s_drop", "ratio"},
};

/// The per-layer metrics each workload exercises: a traced run fails when
/// one of them is missing. The rest of the per-layer set reads 0 there.
const std::vector<std::string> kEveryWorkload = {
    "routing.calls_per_query",   "routing.calls_per_insert",
    "routing.gpsr_calls_per_insert", "routing.probe_us",
    "routing.gpsr_us_per_miss",  "routing.hops_per_call",
    "routing.perimeter_hop_frac", "routing.cache_hit_rate",
    "routing.planarize_s",       "net.build_s",
    "net.query_messages_per_query", "net.reply_messages_per_query",
    "trace.overhead_frac",       "trace.layer_sum_frac",
};
const std::map<std::string, std::vector<std::string>> kExercised = {
    {"ingest_100k",
     {"core.query_self_us", "core.insert_self_us", "core.visits_per_query",
      "core.build_s", "storage.rows_scanned_per_result",
      "storage.bytes_touched_per_query"}},
    {"archive_paged",
     {"storage.query_self_us", "storage.insert_self_us", "storage.expire_ms",
      "storage.rows_scanned_per_result", "storage.blocks_skipped_frac",
      "storage.bytes_touched_per_query", "storage.pager.hit_rate",
      "storage.pager.misses_per_query", "storage.pager.evictions_per_insert",
      "storage.bytes_per_event"}},
    {"batch_dim",
     {"engine.self_us", "engine.cache_hit_rate", "engine.dedup_ratio",
      "engine.batch_occupancy", "engine.messages_saved_per_query",
      "dim.query_self_us", "dim.batch_self_us", "dim.insert_self_us",
      "dim.visits_per_query", "server.parse_us", "server.encode_us",
      "server.result_bytes"}},
};

/// The layer self times of the traced operations must add up to what the
/// same operations took untraced to within this share: more is tracing
/// distortion, less is work inside an operation that no layer span covers.
constexpr double kLayerSumBound = 0.15;

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir> "
               "[--trace-out <csv>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = value == "1";
      } else if (flag == "--work-dir") {
        args.work_dir = value;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  if (!(args.seconds > 0)) return usage("--seconds must be positive");

  const std::string host = host_fingerprint_json();
  std::printf("%s\n", host.c_str());
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }

  Report report;
  try {
    if (args.workload == "ingest_100k") {
      report = run_ingest(args);
    } else if (args.workload == "archive_paged") {
      report = run_archive(args);
    } else if (args.workload == "batch_dim") {
      report = run_batch_dim(args);
    } else if (args.workload == "selftest") {
      report = run_ingest_selftest(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  const bool selftest = args.workload == "selftest";
  bool correct = report.failed == 0 && report.attempted > 0;
  if (args.trace && !selftest) {
    std::vector<std::string> required = kEveryWorkload;
    const std::vector<std::string>& own = kExercised.at(args.workload);
    required.insert(required.end(), own.begin(), own.end());
    for (const std::string& name : required) {
      if (report.values.count(name)) continue;
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), name.c_str());
      correct = false;
    }
    const double frac = report.values["trace.layer_sum_frac"];
    if (std::fabs(1.0 - frac) > kLayerSumBound) {
      report.note("trace check FAILED: layer self times add up to " +
                  std::to_string(frac) +
                  " of the untraced operation time (bound ±" +
                  std::to_string(kLayerSumBound) + ")");
      correct = false;
    }
  }
  for (const std::string& line : report.notes)
    std::printf("# %s\n", line.c_str());
  std::printf("# %s seed=%llu trace=%d: attempted=%llu failed=%llu "
              "failed_frac=%.6f\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0,
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed),
              report.attempted
                  ? double(report.failed) / double(report.attempted)
                  : 1.0);

  const std::vector<Metric>& set =
      selftest ? kSelfTest : args.trace ? kPerLayer : kEndToEnd;
  std::string metrics;
  for (std::size_t i = 0; i < set.size(); ++i) {
    const auto it = report.values.find(set[i].name);
    double v = 0;
    if (it != report.values.end()) {
      v = it->second;
    } else if (!args.trace || selftest) {  // traced: checked above
      std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                   args.workload.c_str(), set[i].name);
      correct = false;
    }
    std::printf("# %-36s %16.6f %s\n", set[i].name, v, set[i].unit);
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i ? ", " : "", set[i].name, v, set[i].unit);
    metrics += buf;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
