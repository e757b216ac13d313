// Section 4.2 extension experiment (the paper defers details to its
// technical report): workload sharing under a skewed event distribution.
//
// A Gaussian-concentrated workload hammers a few cells of one pool. With
// sharing off, the hottest index node absorbs the whole burst; with
// sharing on, delegation bounds the per-node resident load at a small and
// quantified message overhead, and queries remain exact.
#include <cstdio>

#include <vector>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"
#include "obs/report.h"
#include "query/query_gen.h"

using namespace poolnet;
using namespace poolnet::benchsup;

namespace {

struct Outcome {
  obs::LoadReport load;  ///< hotspot shape of the per-node resident load
  std::uint64_t insert_msgs = 0;
  double hot_query_msgs = 0;
  std::size_t mismatches = 0;
};

Outcome run(bool sharing, std::uint32_t threshold, std::uint64_t seed,
            const routing::RouteCacheConfig& route_cache) {
  TestbedConfig config;
  config.nodes = 900;
  config.seed = seed;
  config.workload.dist = query::ValueDistribution::Hotspot;
  config.workload.center = 0.85;
  config.workload.spread = 0.03;
  config.workload.hotspot_fraction = 0.8;
  config.pool.workload_sharing = sharing;
  config.pool.share_threshold = threshold;
  config.route_cache = route_cache;
  Testbed tb(config);
  tb.insert_workload();

  Outcome out;
  out.insert_msgs = tb.insert_traffic(SystemKind::Pool).total;
  // The per-node tally goes through the shared hotspot report — the same
  // max/p99/Gini every other surface (CLI --metrics, testbed scrape) uses.
  std::vector<std::uint64_t> loads;
  for (const auto& node : tb.network(SystemKind::Pool).nodes())
    loads.push_back(node.stored_events);
  out.load = obs::load_report(loads);

  // Queries over the hot region, where delegation is actually exercised.
  query::QueryGenerator qgen({.dims = 3}, seed * 3 + 1);
  std::vector<storage::RangeQuery> queries;
  Rng rng(seed * 5 + 2);
  for (int i = 0; i < 40; ++i) {
    const double lo = rng.uniform(0.7, 0.9);
    queries.push_back(storage::RangeQuery(
        {{lo, std::min(1.0, lo + 0.1)},
         {lo, std::min(1.0, lo + 0.1)},
         {0.0, 1.0}}));
  }
  const auto paired = run_paired_queries(tb, queries, seed * 7 + 3);
  out.hot_query_msgs = paired.pool.messages.mean();
  out.mismatches = paired.pool_mismatches;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_banner("Hotspot workload sharing (Section 4.2)",
               "900 nodes; 80% of events Gaussian(0.85, 0.03) on every "
               "attribute; Pool with and without workload sharing.");

  constexpr int kSeeds = 3;
  const std::vector<std::tuple<const char*, bool, std::uint32_t>> configs = {
      {"sharing off", false, 0u},
      {"sharing on (T=32)", true, 32u},
      {"sharing on (T=64)", true, 64u},
      {"sharing on (T=128)", true, 128u}};

  struct Job {
    std::size_t group;
    bool sharing;
    std::uint32_t threshold;
    int seed;
  };
  std::vector<Job> grid;
  for (std::size_t g = 0; g < configs.size(); ++g)
    for (int seed = 1; seed <= kSeeds; ++seed)
      grid.push_back({g, std::get<1>(configs[g]), std::get<2>(configs[g]),
                      seed});

  const auto runs = parallel_map<Outcome>(
      grid.size(), opts.threads, [&grid, &opts](std::size_t i) {
        const Job& j = grid[i];
        return run(j.sharing, j.threshold,
                   static_cast<std::uint64_t>(j.seed), opts.route_cache);
      });

  TablePrinter table({"configuration", "max node load", "p99 load", "gini",
                      "insert msgs", "hot-query msgs", "exact results"});
  for (std::size_t g = 0; g < configs.size(); ++g) {
    std::uint64_t max_load = 0, insert_msgs = 0;
    double p99 = 0, gini = 0, hot = 0;
    std::size_t mismatches = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].group != g) continue;
      max_load = std::max(max_load, runs[i].load.max_load);
      p99 += runs[i].load.p99_load;
      gini += runs[i].load.gini;
      insert_msgs += runs[i].insert_msgs;
      hot += runs[i].hot_query_msgs;
      mismatches += runs[i].mismatches;
    }
    table.add_row({std::get<0>(configs[g]), std::to_string(max_load),
                   fmt(p99 / kSeeds), fmt(gini / kSeeds, 3),
                   std::to_string(insert_msgs / kSeeds), fmt(hot / kSeeds),
                   mismatches == 0 ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nExpected shape: sharing bounds the max resident load near the "
      "threshold for a small insert-message overhead; queries stay exact.\n");
  return 0;
}
