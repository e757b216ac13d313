// Tests of the Section 4.2 workload-sharing mechanism under skewed loads.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <memory>
#include <set>

#include "core/pool_system.h"
#include "net/deployment.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "storage/brute_force_store.h"

namespace poolnet::core {
namespace {

using net::Network;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;

struct Fixture {
  explicit Fixture(std::uint64_t seed, PoolConfig config, std::size_t n = 250)
      : oracle(3) {
    const double side = net::field_side_for_density(n, 40.0, 20.0);
    const Rect field{0, 0, side, side};
    for (std::uint64_t attempt = 0;; ++attempt) {
      Rng rng(seed + attempt * 7919);
      auto pts = net::deploy_uniform(n, field, rng);
      auto candidate = std::make_unique<Network>(std::move(pts), field, 40.0);
      if (candidate->is_connected()) {
        network = std::move(candidate);
        break;
      }
    }
    gpsr = std::make_unique<routing::Gpsr>(*network);
    pool = std::make_unique<PoolSystem>(*network, *gpsr, 3, config);
  }

  void insert_skewed(std::size_t count, std::uint64_t seed) {
    query::WorkloadConfig wc;
    wc.dims = 3;
    wc.dist = query::ValueDistribution::Gaussian;
    wc.center = 0.85;
    wc.spread = 0.02;
    query::EventGenerator gen(wc, seed);
    for (std::size_t i = 0; i < count; ++i) {
      const auto e = gen.next(static_cast<NodeId>(i % network->size()));
      pool->insert(e.source, e);
      oracle.insert(e.source, e);
    }
  }

  std::unique_ptr<Network> network;
  std::unique_ptr<routing::Gpsr> gpsr;
  std::unique_ptr<PoolSystem> pool;
  storage::BruteForceStore oracle;
};

std::vector<std::uint64_t> ids(const std::vector<Event>& evs) {
  std::vector<std::uint64_t> out;
  for (const auto& e : evs) out.push_back(e.id);
  std::sort(out.begin(), out.end());
  return out;
}

PoolConfig sharing_config(bool on, std::uint32_t threshold = 20) {
  PoolConfig c;
  c.workload_sharing = on;
  c.share_threshold = threshold;
  return c;
}

TEST(WorkloadSharing, ReducesMaxNodeLoadUnderSkew) {
  Fixture without(1, sharing_config(false));
  Fixture with(1, sharing_config(true, 20));
  without.insert_skewed(1500, 42);
  with.insert_skewed(1500, 42);
  EXPECT_LT(with.pool->max_node_load(), without.pool->max_node_load());
  EXPECT_LE(with.pool->max_node_load(), 20u + 25u)
      << "delegation should bound resident load near the threshold";
}

TEST(WorkloadSharing, NoEventsAreLost) {
  Fixture fx(2, sharing_config(true, 10));
  fx.insert_skewed(800, 7);
  EXPECT_EQ(fx.pool->stored_count(), 800u);
  std::uint64_t resident = 0;
  for (const auto& node : fx.network->nodes()) resident += node.stored_events;
  EXPECT_EQ(resident, 800u);
}

TEST(WorkloadSharing, QueriesStillReturnExactResults) {
  Fixture fx(3, sharing_config(true, 10));
  fx.insert_skewed(1000, 9);
  // The hotspot region query: most events live here, many at delegates.
  const RangeQuery hot({{0.7, 1.0}, {0.7, 1.0}, {0.7, 1.0}});
  EXPECT_EQ(ids(fx.pool->query(0, hot).events), ids(fx.oracle.matching(hot)));
  const RangeQuery all({{0, 1}, {0, 1}, {0, 1}});
  EXPECT_EQ(ids(fx.pool->query(5, all).events), ids(fx.oracle.matching(all)));
}

TEST(WorkloadSharing, DelegationCostsExtraMessages) {
  Fixture without(4, sharing_config(false));
  Fixture with(4, sharing_config(true, 10));
  without.insert_skewed(600, 11);
  const auto base = without.network->traffic().total;
  with.insert_skewed(600, 11);
  const auto shared = with.network->traffic().total;
  EXPECT_GT(shared, base) << "handoff hops must be charged";
  // But the overhead is bounded: at most one extra hop per insertion.
  EXPECT_LE(shared, base + 600);
}

TEST(WorkloadSharing, DisabledKeepsEverythingAtIndexNodes) {
  Fixture fx(5, sharing_config(false));
  fx.insert_skewed(500, 13);
  // Query cost with sharing off must involve no delegate hops: re-running
  // the same query twice gives identical cost (determinism check).
  const RangeQuery hot({{0.7, 1.0}, {0.7, 1.0}, {0.7, 1.0}});
  const auto r1 = fx.pool->query(0, hot);
  const auto r2 = fx.pool->query(0, hot);
  EXPECT_EQ(r1.messages, r2.messages);
}

TEST(WorkloadSharing, UniformLoadRarelyTriggersDelegation) {
  // Under a uniform workload, sharing with a generous threshold should be
  // almost never exercised: the insert traffic with sharing on is within a
  // whisker of the traffic with sharing off. Note a physical index node
  // serves ~10 logical cells at paper density, so the threshold must sit
  // well above the per-node (not per-cell) expected load.
  Fixture with(6, sharing_config(true, 256));
  Fixture without(6, sharing_config(false));
  query::EventGenerator gen_a({.dims = 3}, 17), gen_b({.dims = 3}, 17);
  for (std::size_t i = 0; i < 750; ++i) {
    const auto src = static_cast<NodeId>(i % with.network->size());
    with.pool->insert(src, gen_a.next(src));
    without.pool->insert(src, gen_b.next(src));
  }
  const auto extra = with.network->traffic().total -
                     without.network->traffic().total;
  EXPECT_LT(extra, 750u / 20) << "uniform load should barely delegate";
}

RangeQuery whole_space() {
  return RangeQuery({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
}

// k-NN with k >= the stored events and a first box spanning the whole
// value space visits exactly the whole-space range query's cells, and
// every cell answers with all its events — so the two must charge the
// same traffic, the delegate polls of workload sharing included.
TEST(WorkloadSharing, WholeSpaceKnnChargesLikeWholeSpaceRange) {
  std::uint64_t range_msgs[2] = {0, 0};
  for (const bool sharing : {false, true}) {
    Fixture fx(17, sharing_config(sharing, 4));
    fx.insert_skewed(600, 23);
    storage::KNearestQuery q;
    q.target = storage::Values{0.3, 0.6, 0.9};
    q.k = fx.oracle.all().size();
    q.initial_radius = 1.0;
    const auto knn = fx.pool->execute(7, q);
    const auto range = fx.pool->query(7, whole_space());
    EXPECT_EQ(knn.messages, range.messages) << "sharing " << sharing;
    EXPECT_EQ(knn.query_messages, range.query_messages) << "sharing " << sharing;
    EXPECT_EQ(knn.reply_messages, range.reply_messages) << "sharing " << sharing;
    EXPECT_EQ(knn.index_nodes_visited, range.index_nodes_visited);
    EXPECT_EQ(knn.rounds, 1u);
    EXPECT_EQ(ids(knn.events), ids(range.events));
    range_msgs[sharing] = range.messages;
  }
  EXPECT_GT(range_msgs[1], range_msgs[0]) << "no delegate was polled";
}

// Failover under workload sharing: once a cell's index node dies, the
// re-elected index node polls the dead node's delegates, which need not
// be ITS radio neighbors. Every surviving event keeps answering range,
// aggregate and skyline queries: each result equals the oracle's over
// the events failover did not count lost.
TEST(WorkloadSharing, FailoverPollsDelegatesBeyondRadioRange) {
  bool exercised = false;
  for (std::size_t pick = 0; pick < 10 && !exercised; ++pick) {
    Fixture fx(31, sharing_config(true, 4));
    // Which delegates each index node handed events to, per the receipts.
    query::WorkloadConfig wc;
    wc.dims = 3;
    wc.dist = query::ValueDistribution::Gaussian;
    wc.center = 0.6;
    wc.spread = 0.1;
    query::EventGenerator gen(wc, 77);
    std::map<NodeId, std::pair<CellCoord, std::vector<NodeId>>> handed;
    for (std::size_t i = 0; i < 600; ++i) {
      const auto e = gen.next(static_cast<NodeId>(i % fx.network->size()));
      const auto choice = fx.pool->choose_cell(e.source, e);
      const auto r = fx.pool->insert(e.source, e);
      fx.oracle.insert(e.source, e);
      if (r.stored_at == choice.index_node) continue;
      handed[choice.index_node].first = choice.coord;
      handed[choice.index_node].second.push_back(r.stored_at);
    }
    if (pick >= handed.size()) break;
    const auto& [dead, cell] = *std::next(handed.begin(), pick);
    fx.network->kill(dead);
    fx.pool->handle_node_failure(dead);
    const NodeId reelected = fx.pool->grid().index_node(cell.first);
    exercised = std::any_of(
        cell.second.begin(), cell.second.end(), [&](NodeId d) {
          return fx.network->alive(d) && d != reelected &&
                 !fx.network->are_neighbors(reelected, d);
        });
    if (!exercised) continue;

    // The whole-space answer names the survivors; together with the
    // events counted lost it must be exactly the oracle.
    const NodeId sink = dead == 0 ? 1 : 0;
    const auto all = fx.pool->query(sink, whole_space()).events;
    ASSERT_EQ(all.size() + fx.pool->fault_stats().events_lost,
              fx.oracle.all().size());
    std::set<std::uint64_t> survivor_ids;
    for (const auto& e : all) survivor_ids.insert(e.id);
    std::vector<Event> survivors;
    for (const auto& e : fx.oracle.all())
      if (survivor_ids.count(e.id)) survivors.push_back(e);
    ASSERT_EQ(survivors.size(), all.size());

    query::QueryGenerator qgen({.dims = 3}, 5);
    for (int i = 0; i < 10; ++i) {
      const auto q = i % 2 ? qgen.partial_range(1) : qgen.exact_range();
      std::vector<Event> want;
      storage::PartialAggregate partial;
      for (const auto& e : survivors)
        if (q.matches(e)) {
          want.push_back(e);
          partial.add(e.values[1]);
        }
      EXPECT_EQ(ids(fx.pool->query(sink, q).events), ids(want)) << i;
      for (const auto kind :
           {storage::AggregateKind::Count, storage::AggregateKind::Sum,
            storage::AggregateKind::Max}) {
        const auto got = fx.pool->aggregate(sink, q, kind, 1).result;
        const auto expect = partial.finalize(kind);
        EXPECT_EQ(got.count, expect.count) << i;
        EXPECT_EQ(got.valid, expect.valid) << i;
        EXPECT_NEAR(got.value, expect.value, 1e-9) << i;
      }
      const auto sq = qgen.skyline_query();
      std::vector<Event> sky = survivors;
      storage::skyline_filter(sq, sky);
      EXPECT_EQ(ids(fx.pool->skyline(sink, sq).events), ids(sky)) << i;
    }
  }
  EXPECT_TRUE(exercised) << "no failover left a delegate out of radio range";
}

}  // namespace
}  // namespace poolnet::core
