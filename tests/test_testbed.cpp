#include "bench_support/testbed.h"

#include <gtest/gtest.h>

#include "bench_support/experiment.h"
#include "common/error.h"
#include "query/query_gen.h"

namespace poolnet::benchsup {
namespace {

TestbedConfig small_config(std::uint64_t seed = 1, std::size_t nodes = 200) {
  TestbedConfig config;
  config.nodes = nodes;
  config.seed = seed;
  return config;
}

TEST(Testbed, BuildsConnectedNetworksOverSamePositions) {
  Testbed tb(small_config());
  EXPECT_TRUE(tb.network(SystemKind::Pool).is_connected());
  EXPECT_TRUE(tb.network(SystemKind::Dim).is_connected());
  ASSERT_EQ(tb.network(SystemKind::Pool).size(),
            tb.network(SystemKind::Dim).size());
  for (net::NodeId i = 0; i < tb.network(SystemKind::Pool).size(); ++i)
    EXPECT_EQ(tb.network(SystemKind::Pool).position(i),
              tb.network(SystemKind::Dim).position(i));
}

TEST(Testbed, DensityNearPaperTarget) {
  Testbed tb(small_config(2, 900));
  EXPECT_GT(tb.network(SystemKind::Pool).average_degree(), 14.0);
  EXPECT_LT(tb.network(SystemKind::Pool).average_degree(), 22.0);
}

TEST(Testbed, InsertWorkloadFillsAllThreeStores) {
  Testbed tb(small_config(3));
  const auto n = tb.insert_workload();
  EXPECT_EQ(n, 200u * 3u);
  EXPECT_EQ(tb.pool().stored_count(), n);
  EXPECT_EQ(tb.dim().stored_count(), n);
  EXPECT_EQ(tb.oracle().stored_count(), n);
}

TEST(Testbed, InsertTrafficTrackedPerSystem) {
  Testbed tb(small_config(4));
  tb.insert_workload();
  EXPECT_GT(tb.insert_traffic(SystemKind::Pool).total, 0u);
  EXPECT_GT(tb.insert_traffic(SystemKind::Dim).total, 0u);
  // Query-time ledgers start clean.
  EXPECT_EQ(tb.network(SystemKind::Pool).traffic().total, 0u);
  EXPECT_EQ(tb.network(SystemKind::Dim).traffic().total, 0u);
}

TEST(Testbed, DeterministicAcrossRebuilds) {
  Testbed a(small_config(5));
  Testbed b(small_config(5));
  a.insert_workload();
  b.insert_workload();
  EXPECT_EQ(a.insert_traffic(SystemKind::Pool).total,
            b.insert_traffic(SystemKind::Pool).total);
  EXPECT_EQ(a.insert_traffic(SystemKind::Dim).total,
            b.insert_traffic(SystemKind::Dim).total);
}

TEST(Testbed, SubsetDeploysOnlyTheNamedStacks) {
  TestbedConfig config = small_config(8);
  config.systems = {SystemKind::Central, SystemKind::Ght, SystemKind::Ght};
  Testbed tb(config);
  EXPECT_EQ(tb.systems(),
            (std::vector<SystemKind>{SystemKind::Ght, SystemKind::Central}));
  EXPECT_THROW(tb.network(SystemKind::Pool), ConfigError);
  EXPECT_THROW(tb.pool(), ConfigError);
  EXPECT_THROW(tb.insert_traffic(SystemKind::Dim), ConfigError);
  EXPECT_EQ(tb.insert_workload(), 200u * 3u);
  EXPECT_EQ(tb.system(SystemKind::Ght).stored_count(), 200u * 3u);
  EXPECT_EQ(tb.system(SystemKind::Central).stored_count(), 200u * 3u);
  EXPECT_EQ(tb.oracle().stored_count(), 200u * 3u);
}

TEST(Testbed, EveryStackSharesPositionsAndWorkload) {
  TestbedConfig config = small_config(9);
  config.systems.assign(kAllSystems.begin(), kAllSystems.end());
  Testbed tb(config);
  const auto n = tb.insert_workload();
  ASSERT_EQ(tb.systems().size(), kAllSystems.size());
  for (const SystemKind kind : tb.systems()) {
    const net::Network& net = tb.network(kind);
    ASSERT_EQ(net.size(), tb.positions().size()) << to_string(kind);
    for (net::NodeId i = 0; i < net.size(); ++i)
      ASSERT_EQ(net.position(i), tb.positions()[i]) << to_string(kind);
    EXPECT_TRUE(net.is_connected()) << to_string(kind);
    EXPECT_EQ(tb.system(kind).stored_count(), n) << to_string(kind);
    EXPECT_GT(tb.insert_traffic(kind).total, 0u) << to_string(kind);
    EXPECT_EQ(net.traffic().total, 0u) << to_string(kind);
    ASSERT_NE(tb.route_cache(kind), nullptr) << to_string(kind);
    EXPECT_EQ(&tb.router(kind),
              static_cast<const routing::Router*>(tb.route_cache(kind)));
  }
}

// A stack's receipts do not depend on which other stacks share the
// testbed: each system in a one-system testbed charges exactly what it
// charges next to the other three.
TEST(Testbed, SubsetStackMatchesItsFullDeploymentTwin) {
  TestbedConfig full_config = small_config(10);
  full_config.systems.assign(kAllSystems.begin(), kAllSystems.end());
  Testbed full(full_config);
  full.insert_workload();
  for (const SystemKind kind : kAllSystems) {
    TestbedConfig config = small_config(10);
    config.systems = {kind};
    Testbed one(config);
    one.insert_workload();
    EXPECT_EQ(one.insert_traffic(kind).total, full.insert_traffic(kind).total)
        << to_string(kind);
    query::QueryGenerator qgen({.dims = 3}, 101);
    for (int i = 0; i < 5; ++i) {
      const auto q = qgen.exact_range();
      const auto a = one.system(kind).query(7, q);
      const auto b = full.system(kind).query(7, q);
      EXPECT_EQ(a.events, b.events) << to_string(kind);
      EXPECT_EQ(a.messages, b.messages) << to_string(kind);
    }
  }
}

TEST(Testbed, GhtInsertTrafficIsTheSumOfItsReceipts) {
  TestbedConfig config = small_config(11);
  config.systems = {SystemKind::Ght};
  Testbed loaded(config);
  loaded.insert_workload();
  Testbed replayed(config);  // same deployment, fed event by event
  std::uint64_t receipts = 0;
  for (const auto& e : loaded.oracle().all())
    receipts += replayed.system(SystemKind::Ght).insert(e.source, e).messages;
  EXPECT_GT(receipts, 0u);
  EXPECT_EQ(receipts, loaded.insert_traffic(SystemKind::Ght).total);
}

TEST(Testbed, SystemNamesRoundTrip) {
  for (const SystemKind kind : kAllSystems) {
    SystemKind parsed = SystemKind::Pool;
    std::string error;
    ASSERT_TRUE(parse_system_kind(to_string(kind), &parsed, &error));
    EXPECT_EQ(parsed, kind);
  }
  SystemKind untouched = SystemKind::Dim;
  std::string error;
  EXPECT_FALSE(parse_system_kind("all", &untouched, &error));
  EXPECT_EQ(untouched, SystemKind::Dim);
  EXPECT_NE(error.find("'all'"), std::string::npos);
}

TEST(PairedRunner, BothSystemsMatchOracleEverywhere) {
  Testbed tb(small_config(6));
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 66);
  const auto queries =
      generate_queries(25, [&] { return qgen.exact_range(); });
  const auto run = run_paired_queries(tb, queries, 67);
  EXPECT_EQ(run.queries, 25u);
  EXPECT_EQ(run.pool_mismatches, 0u);
  EXPECT_EQ(run.dim_mismatches, 0u);
  EXPECT_GT(run.pool.messages.mean(), 0.0);
  EXPECT_GT(run.dim.messages.mean(), 0.0);
  EXPECT_GT(run.pool.energy_mj.mean(), 0.0);
}

TEST(PairedRunner, MergeAccumulates) {
  Testbed tb(small_config(7));
  tb.insert_workload();
  query::QueryGenerator qgen({.dims = 3}, 77);
  const auto queries =
      generate_queries(10, [&] { return qgen.exact_range(); });
  const auto a = run_paired_queries(tb, queries, 1);
  auto total = run_paired_queries(tb, queries, 2);
  merge_into(total, a);
  EXPECT_EQ(total.queries, 20u);
  EXPECT_EQ(total.pool.messages.count(), 20u);
}

TEST(Experiment, FmtFormatsFixedDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
  EXPECT_EQ(fmt(0.5), "0.5");
}

TEST(Experiment, GenerateQueriesCallsFactoryNTimes) {
  int calls = 0;
  const auto qs = generate_queries(7, [&] {
    ++calls;
    return storage::RangeQuery({{0.0, 1.0}});
  });
  EXPECT_EQ(qs.size(), 7u);
  EXPECT_EQ(calls, 7);
}

}  // namespace
}  // namespace poolnet::benchsup
