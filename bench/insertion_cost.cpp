// §5.2's untabulated claim: "the data insertion cost of both methods are
// conceptually the same" — both ship each event over one GPSR unicast.
// This bench makes the claim measurable: mean insert messages per event
// versus network size, for Pool and DIM.
#include <cstdio>

#include "bench_support/experiment.h"
#include "bench_support/parallel.h"

using namespace poolnet;
using namespace poolnet::benchsup;

namespace {
struct SeedRun {
  double pool_msgs = 0, dim_msgs = 0, pool_energy = 0, dim_energy = 0;
  std::size_t events = 0;
};
}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_banner("Insertion cost (Section 5.2 claim)",
               "Mean per-hop messages to insert one 3-d event; 3 events per "
               "node; uniform values; both systems use GPSR unicast.");

  constexpr int kSeeds = 3;

  std::vector<std::size_t> sizes;
  for (std::size_t nodes = 300; nodes <= 2700; nodes += 600)
    sizes.push_back(nodes);

  struct Job {
    std::size_t group;
    std::size_t nodes;
    int seed;
  };
  std::vector<Job> grid;
  for (std::size_t g = 0; g < sizes.size(); ++g)
    for (int seed = 1; seed <= kSeeds; ++seed) grid.push_back({g, sizes[g], seed});

  const auto runs = parallel_map<SeedRun>(
      grid.size(), opts.threads, [&grid, &opts](std::size_t i) {
        const auto [group, nodes, seed] = grid[i];
        (void)group;
        TestbedConfig config;
        config.nodes = nodes;
        config.seed = static_cast<std::uint64_t>(seed);
        config.route_cache = opts.route_cache;
        Testbed tb(config);
        SeedRun out;
        out.events = tb.insert_workload();
        out.pool_msgs =
            static_cast<double>(tb.insert_traffic(SystemKind::Pool).total);
        out.dim_msgs =
            static_cast<double>(tb.insert_traffic(SystemKind::Dim).total);
        out.pool_energy = tb.insert_traffic(SystemKind::Pool).energy_j;
        out.dim_energy = tb.insert_traffic(SystemKind::Dim).energy_j;
        return out;
      });

  TablePrinter table({"nodes", "Pool msgs/event", "DIM msgs/event",
                      "Pool/DIM", "Pool energy (mJ/event)",
                      "DIM energy (mJ/event)"});
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    double pool_msgs = 0, dim_msgs = 0, pool_energy = 0, dim_energy = 0;
    std::size_t events = 0;
    for (std::size_t i = 0; i < grid.size(); ++i) {
      if (grid[i].group != g) continue;
      pool_msgs += runs[i].pool_msgs;
      dim_msgs += runs[i].dim_msgs;
      pool_energy += runs[i].pool_energy;
      dim_energy += runs[i].dim_energy;
      events += runs[i].events;
    }
    const double n = static_cast<double>(events);
    table.add_row({std::to_string(sizes[g]), fmt(pool_msgs / n, 2),
                   fmt(dim_msgs / n, 2), fmt(pool_msgs / dim_msgs, 2),
                   fmt(pool_energy / n * 1e3, 3),
                   fmt(dim_energy / n * 1e3, 3)});
  }
  table.print();
  std::printf(
      "\nExpected shape: per-event cost similar for both systems (within "
      "tens of percent), growing ~ sqrt(n) with field diameter.\n");
  return 0;
}
