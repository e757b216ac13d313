// Nearest-neighbor queries in attribute space (the paper's future-work
// feature): k = 1 KNearestQuery requests through execute(), served by
// Pool's expanding box search.
#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "query/workload.h"

namespace poolnet::core {
namespace {

using storage::Event;
using storage::Values;

double dist(const Values& a, const Values& b) {
  double d2 = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    d2 += diff * diff;
  }
  return std::sqrt(d2);
}

struct NnFixture {
  explicit NnFixture(std::uint64_t seed, std::size_t nodes = 250) {
    benchsup::TestbedConfig config;
    config.nodes = nodes;
    config.seed = seed;
    tb = std::make_unique<benchsup::Testbed>(config);
    tb->insert_workload();
  }

  // Brute-force reference NN over everything the oracle holds.
  std::pair<const Event*, double> brute_nn(const Values& target) const {
    const Event* best = nullptr;
    double best_d = std::numeric_limits<double>::infinity();
    for (const Event& e : tb->oracle().all()) {
      const double d = dist(e.values, target);
      if (d < best_d) {
        best_d = d;
        best = &e;
      }
    }
    return {best, best_d};
  }

  // The nearest stored event to `target` as Pool finds it (k = 1).
  storage::QueryReceipt nearest(net::NodeId sink, const Values& target,
                                double initial_radius = 0.0) {
    storage::KNearestQuery q;
    q.target = target;
    q.initial_radius = initial_radius;
    return tb->pool().execute(sink, q);
  }

  std::unique_ptr<benchsup::Testbed> tb;
};

class NnSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NnSeeds, MatchesBruteForceDistance) {
  NnFixture fx(GetParam());
  Rng rng(GetParam() * 91 + 2);
  for (int trial = 0; trial < 40; ++trial) {
    Values target{rng.uniform(), rng.uniform(), rng.uniform()};
    const auto [want, want_d] = fx.brute_nn(target);
    ASSERT_NE(want, nullptr);
    const auto r = fx.nearest(fx.tb->random_node(rng), target);
    ASSERT_EQ(r.events.size(), 1u);
    // Ties by distance are acceptable; the distance itself must match.
    EXPECT_NEAR(dist(r.events[0].values, target), want_d, 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NnSeeds, ::testing::Values(1, 2, 3, 4));

TEST(NearestNeighbor, ExactHitHasZeroDistance) {
  NnFixture fx(5);
  const Event& stored = fx.tb->oracle().all()[100];
  const auto r = fx.nearest(0, stored.values);
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_DOUBLE_EQ(dist(r.events[0].values, stored.values), 0.0);
  EXPECT_EQ(r.events[0].values, stored.values);
}

TEST(NearestNeighbor, EmptyStoreReturnsNothing) {
  benchsup::TestbedConfig config;
  config.nodes = 150;
  config.seed = 6;
  benchsup::Testbed tb(config);  // no insert_workload()
  storage::KNearestQuery q;
  q.target = Values{0.5, 0.5, 0.5};
  const auto r = tb.pool().execute(0, q);
  EXPECT_TRUE(r.events.empty());
  EXPECT_GT(r.rounds, 1u);  // had to expand to the whole space
}

TEST(NearestNeighbor, VisitsFewCellsForDenseTargets) {
  NnFixture fx(7, 400);
  // With 1200 stored events, a centered target finds a neighbor within
  // the first rounds and touches a small fraction of the 300 cells.
  const auto r = fx.nearest(0, Values{0.5, 0.4, 0.3});
  ASSERT_EQ(r.events.size(), 1u);
  EXPECT_LT(r.index_nodes_visited, 100u);
  EXPECT_GT(r.messages, 0u);
}

TEST(NearestNeighbor, CornerTargetsStillComplete) {
  NnFixture fx(8);
  for (const auto& target :
       {Values{0.0, 0.0, 0.0}, Values{1.0, 1.0, 1.0}, Values{1.0, 0.0, 1.0}}) {
    const auto [want, want_d] = fx.brute_nn(target);
    ASSERT_NE(want, nullptr);
    const auto r = fx.nearest(3, target);
    ASSERT_EQ(r.events.size(), 1u);
    EXPECT_NEAR(dist(r.events[0].values, target), want_d, 1e-12);
  }
}

TEST(NearestNeighbor, LargerInitialRadiusFewerRounds) {
  NnFixture fx(9);
  Values target{0.2, 0.9, 0.4};
  const auto small = fx.nearest(0, target, 0.01);
  const auto large = fx.nearest(0, target, 0.5);
  EXPECT_GE(small.rounds, large.rounds);
  ASSERT_EQ(small.events.size(), 1u);
  ASSERT_EQ(large.events.size(), 1u);
  EXPECT_NEAR(dist(small.events[0].values, target),
              dist(large.events[0].values, target), 1e-12);
}

TEST(NearestNeighbor, RejectsBadArguments) {
  NnFixture fx(10, 150);
  EXPECT_THROW(fx.nearest(0, Values{0.5, 0.5}), poolnet::ConfigError);
  EXPECT_THROW(fx.nearest(0, Values{0.5, 0.5, 0.5}, -0.1),
               poolnet::ConfigError);
}

}  // namespace
}  // namespace poolnet::core
