// End-to-end integration: full deployments, both systems, every query
// type, results always identical to the oracle, and the paper's headline
// qualitative claims hold on small testbeds.
#include <gtest/gtest.h>

#include "bench_support/experiment.h"
#include "bench_support/testbed.h"
#include "query/query_gen.h"

namespace poolnet::benchsup {
namespace {

class IntegrationSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegrationSeeds, AllQueryTypesExactAcrossSystems) {
  TestbedConfig config;
  config.nodes = 300;
  config.seed = GetParam();
  Testbed tb(config);
  tb.insert_workload();

  query::QueryGenerator qgen({.dims = 3}, GetParam() * 31 + 7);
  std::vector<storage::RangeQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(qgen.exact_range());
    queries.push_back(qgen.partial_range(1));
    queries.push_back(qgen.partial_range(2));
    queries.push_back(qgen.exact_point());
    queries.push_back(qgen.partial_point(1));
    for (std::size_t n = 0; n < 3; ++n) queries.push_back(qgen.partial_at(n));
  }
  const auto run = run_paired_queries(tb, queries, GetParam() * 13 + 1);
  EXPECT_EQ(run.pool_mismatches, 0u);
  EXPECT_EQ(run.dim_mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrationSeeds,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Integration, ExponentialQueriesCheaperThanUniform) {
  // The Figure 6(a)/(b) contrast: most exponential-size queries are small,
  // so both systems send far fewer messages.
  TestbedConfig config;
  config.nodes = 400;
  config.seed = 11;
  Testbed tb(config);
  tb.insert_workload();

  query::QueryGenerator uni(
      {.dims = 3, .dist = query::RangeSizeDistribution::Uniform}, 1);
  query::QueryGenerator expo(
      {.dims = 3, .dist = query::RangeSizeDistribution::Exponential,
       .exp_mean = 0.1},
      1);
  const auto uni_run = run_paired_queries(
      tb, generate_queries(60, [&] { return uni.exact_range(); }), 2);
  const auto exp_run = run_paired_queries(
      tb, generate_queries(60, [&] { return expo.exact_range(); }), 2);
  EXPECT_LT(exp_run.pool.messages.mean(), uni_run.pool.messages.mean());
  EXPECT_LT(exp_run.dim.messages.mean(), uni_run.dim.messages.mean());
}

TEST(Integration, PoolBeatsDimOnPartialMatchQueries) {
  // The headline Figure 7(a) effect at a reduced scale.
  TestbedConfig config;
  config.nodes = 500;
  config.seed = 21;
  Testbed tb(config);
  tb.insert_workload();

  query::QueryGenerator qgen({.dims = 3}, 3);
  const auto run = run_paired_queries(
      tb, generate_queries(80, [&] { return qgen.partial_range(1); }), 4);
  EXPECT_LT(run.pool.messages.mean(), run.dim.messages.mean());
}

TEST(Integration, DimCostDependsOnUnspecifiedDimensionPoolDoesNot) {
  // The Figure 7(b) effect: DIM is much worse at 1@1 than 1@3; Pool is
  // position-insensitive (within noise).
  TestbedConfig config;
  config.nodes = 500;
  config.seed = 31;
  Testbed tb(config);
  tb.insert_workload();

  query::QueryGenerator qgen({.dims = 3}, 5);
  const auto at1 = run_paired_queries(
      tb, generate_queries(80, [&] { return qgen.partial_at(0); }), 6);
  const auto at3 = run_paired_queries(
      tb, generate_queries(80, [&] { return qgen.partial_at(2); }), 6);
  EXPECT_GT(at1.dim.messages.mean(), at3.dim.messages.mean());
  // Pool varies far less across positions than DIM does.
  const double pool_ratio =
      at1.pool.messages.mean() / at3.pool.messages.mean();
  const double dim_ratio = at1.dim.messages.mean() / at3.dim.messages.mean();
  EXPECT_LT(std::abs(pool_ratio - 1.0), std::abs(dim_ratio - 1.0));
}

TEST(Integration, InsertionCostsComparableAcrossSystems) {
  // §5.2's claim: both systems pay one GPSR unicast per event.
  TestbedConfig config;
  config.nodes = 400;
  config.seed = 41;
  Testbed tb(config);
  const auto events = tb.insert_workload();
  const double pool_per_event =
      static_cast<double>(tb.insert_traffic(SystemKind::Pool).total) / events;
  const double dim_per_event =
      static_cast<double>(tb.insert_traffic(SystemKind::Dim).total) / events;
  EXPECT_GT(pool_per_event, 1.0);
  EXPECT_GT(dim_per_event, 1.0);
  EXPECT_LT(pool_per_event / dim_per_event, 2.0);
  EXPECT_GT(pool_per_event / dim_per_event, 0.5);
}

TEST(Integration, HigherDimensionalDeploymentsWork) {
  for (const std::size_t dims : {std::size_t{2}, std::size_t{4},
                                 std::size_t{5}}) {
    TestbedConfig config;
    config.nodes = 250;
    config.dims = dims;
    config.seed = 50 + dims;
    config.events_per_node = 2;
    Testbed tb(config);
    tb.insert_workload();
    query::QueryGenerator qgen({.dims = dims}, dims);
    const auto run = run_paired_queries(
        tb, generate_queries(15, [&] { return qgen.exact_range(); }), 51);
    EXPECT_EQ(run.pool_mismatches, 0u) << "dims=" << dims;
    EXPECT_EQ(run.dim_mismatches, 0u) << "dims=" << dims;
  }
}

TEST(Integration, RepeatQueriesAreDeterministic) {
  TestbedConfig config;
  config.nodes = 250;
  config.seed = 61;
  Testbed tb(config);
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 62);
  const auto queries = generate_queries(10, [&] { return qgen.exact_range(); });
  const auto a = run_paired_queries(tb, queries, 63);
  const auto b = run_paired_queries(tb, queries, 63);
  EXPECT_DOUBLE_EQ(a.pool.messages.mean(), b.pool.messages.mean());
  EXPECT_DOUBLE_EQ(a.dim.messages.mean(), b.dim.messages.mean());
}

}  // namespace
}  // namespace poolnet::benchsup
