// Online fault tolerance: fault-plan parsing, live injection into
// co-deployed networks, reliable delivery with route-cache invalidation,
// and per-system failover (Pool mirror restore, DIM zone adoption, GHT
// store reclamation). The acceptance properties live here: recall is 100%
// when failover completes before the query, stale cached routes through a
// dead node are never replayed, a 20% mid-run kill leaves every system
// answering, and a plan that never fires is byte-identical to no plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <vector>

#include "bench_support/testbed.h"
#include "cli/runner.h"
#include "core/pool_system.h"
#include "dim/dim_system.h"
#include "ght/ght_system.h"
#include "net/deployment.h"
#include "net/fault_injector.h"
#include "query/query_gen.h"
#include "routing/gpsr.h"
#include "routing/reliable.h"
#include "routing/route_cache.h"
#include "sim/fault_plan.h"

namespace poolnet {
namespace {

using benchsup::SystemKind;
using net::Network;
using net::NodeId;
using storage::RangeQuery;

Network line_net(std::uint64_t seed = 1) {
  std::vector<Point> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}};
  return Network(pts, Rect{0, 0, 100, 10}, 40.0, {}, {}, {}, seed);
}

Network random_connected_net(std::uint64_t seed, std::size_t n) {
  const double side = net::field_side_for_density(n, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  for (std::uint64_t attempt = 0;; ++attempt) {
    Rng rng(seed + attempt * 1000003);
    auto pts = net::deploy_uniform(n, field, rng);
    Network net(std::move(pts), field, 40.0);
    if (net.is_connected()) return net;
  }
}

std::vector<std::uint64_t> sorted_ids(const std::vector<storage::Event>& es) {
  std::vector<std::uint64_t> ids;
  for (const auto& e : es) ids.push_back(e.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

RangeQuery whole_space() {
  return RangeQuery({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
}

// --- fault-spec parsing ------------------------------------------------

TEST(FaultSpec, OffNoneAndEmptyDisable) {
  for (const char* spec : {"", "off", "none"}) {
    sim::FaultPlan plan;
    std::string err;
    EXPECT_TRUE(sim::parse_fault_spec(spec, &plan, &err)) << spec;
    EXPECT_FALSE(plan.enabled()) << spec;
  }
}

TEST(FaultSpec, ParsesEveryClauseKindAndSortsByTime) {
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec(
      "kill:0.2@15;node:7@3;blackout:100,50,60@10;degrade:0.3@5-20;seed:42",
      &plan, &err))
      << err;
  EXPECT_TRUE(plan.enabled());
  EXPECT_EQ(plan.seed, 42u);
  ASSERT_EQ(plan.actions.size(), 5u);  // degrade expands to start + end
  EXPECT_EQ(plan.actions[0].kind, sim::FaultKind::KillNode);
  EXPECT_EQ(plan.actions[0].node, 7u);
  EXPECT_EQ(plan.actions[1].kind, sim::FaultKind::DegradeStart);
  EXPECT_DOUBLE_EQ(plan.actions[1].extra_loss, 0.3);
  EXPECT_EQ(plan.actions[2].kind, sim::FaultKind::Blackout);
  EXPECT_DOUBLE_EQ(plan.actions[2].radius, 60.0);
  EXPECT_EQ(plan.actions[3].kind, sim::FaultKind::KillFraction);
  EXPECT_DOUBLE_EQ(plan.actions[3].fraction, 0.2);
  EXPECT_EQ(plan.actions[4].kind, sim::FaultKind::DegradeEnd);
  for (std::size_t i = 1; i < plan.actions.size(); ++i)
    EXPECT_LE(plan.actions[i - 1].at, plan.actions[i].at);
}

TEST(FaultSpec, RejectsMalformedClauses) {
  for (const char* bad :
       {"kill:1.5@3", "kill:0.2", "node:x@1", "blackout:1,2@3",
        "degrade:0.5@9-4", "degrade:1.0@1-2", "bogus:1@1", "kill:0.2@-3",
        "seed:abc", "kill"}) {
    sim::FaultPlan plan;
    std::string err;
    EXPECT_FALSE(sim::parse_fault_spec(bad, &plan, &err)) << bad;
    EXPECT_FALSE(err.empty()) << bad;
  }
}

// --- the injector ------------------------------------------------------

TEST(FaultInjector, ScheduledKillHitsEveryNetworkExactlyOnce) {
  auto a = line_net(1);
  auto b = line_net(2);
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("node:2@5", &plan, &err));
  net::FaultInjector injector(plan, a.positions(), {&a, &b});

  EXPECT_TRUE(injector.advance(4.9).empty()) << "fired before its time";
  const auto newly = injector.advance(5.0);
  ASSERT_EQ(newly.size(), 1u);
  EXPECT_EQ(newly[0], 2u);
  EXPECT_FALSE(a.alive(2));
  EXPECT_FALSE(b.alive(2));
  EXPECT_EQ(a.dead_count(), 1u);
  EXPECT_EQ(b.dead_count(), 1u);
  EXPECT_TRUE(injector.exhausted());
  EXPECT_TRUE(injector.advance(6.0).empty()) << "kill is one-shot";
  EXPECT_EQ(injector.total_killed(), 1u);
}

TEST(FaultInjector, FractionKillsRoundedShareOfSurvivors) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.5@1", &plan, &err));
  net::FaultInjector injector(plan, net.positions(), {&net});
  EXPECT_EQ(injector.advance(1.0).size(), 2u);  // half of 4 nodes
  EXPECT_EQ(net.dead_count(), 2u);
}

TEST(FaultInjector, BlackoutKillsExactlyTheDisc) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("blackout:0,0,35@2", &plan, &err));
  net::FaultInjector injector(plan, net.positions(), {&net});
  const auto newly = injector.advance(2.0);
  EXPECT_EQ(newly.size(), 2u);  // x = 0 and x = 30 are within 35 m
  EXPECT_FALSE(net.alive(0));
  EXPECT_FALSE(net.alive(1));
  EXPECT_TRUE(net.alive(2));
  EXPECT_TRUE(net.alive(3));
}

TEST(FaultInjector, DegradeWindowOpensAndCloses) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("degrade:0.3@2-5", &plan, &err));
  net::FaultInjector injector(plan, net.positions(), {&net});
  injector.advance(1.0);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.0);
  injector.advance(2.0);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.3);
  injector.advance(4.9);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.3);
  injector.advance(5.0);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.0);
  EXPECT_EQ(net.dead_count(), 0u);
}

// The injector's own alive map is the world: with no network registered
// (a central-only run) it still decides who is dead, and draws the same
// victims as with networks attached.
TEST(FaultInjector, AliveMapNeedsNoNetwork) {
  auto net = line_net();
  sim::FaultPlan plan;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.5@1", &plan, &err));
  net::FaultInjector bare(plan, net.positions(), {});
  net::FaultInjector wired(plan, net.positions(), {&net});
  const auto a = bare.advance(1.0);
  EXPECT_EQ(a, wired.advance(1.0));
  ASSERT_EQ(a.size(), 2u);
  for (NodeId id = 0; id < net.size(); ++id) {
    const bool killed = std::find(a.begin(), a.end(), id) != a.end();
    EXPECT_EQ(bare.alive(id), !killed) << id;
    EXPECT_EQ(net.alive(id), !killed) << id;
  }
}

TEST(FaultInjector, DisabledPlanIsANoOp) {
  auto net = line_net();
  net::FaultInjector injector(sim::FaultPlan{}, net.positions(), {&net});
  EXPECT_TRUE(injector.exhausted());
  EXPECT_TRUE(injector.advance(1e9).empty());
  EXPECT_EQ(net.dead_count(), 0u);
  EXPECT_DOUBLE_EQ(net.extra_loss(), 0.0);
}

// --- reliable delivery -------------------------------------------------

TEST(ReliableDelivery, AliveLegIsOneRouteOneTransmit) {
  auto net = line_net();
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 0, 3,
                                          net::MessageKind::Query, 64);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(out.reached, 3u);
  EXPECT_EQ(out.retries, 0u);
  EXPECT_TRUE(out.dead_found.empty());
  EXPECT_EQ(net.traffic().total, 3u);  // exactly the path's hops
  EXPECT_EQ(net.traffic().lost, 0u);
}

TEST(ReliableDelivery, SelfLegDeliversWithoutTraffic) {
  auto net = line_net();
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 2, 2,
                                          net::MessageKind::Query, 64);
  EXPECT_TRUE(out.delivered);
  EXPECT_EQ(net.traffic().total, 0u);
}

TEST(ReliableDelivery, DeadTargetIsDetectedAndReported) {
  auto net = line_net();
  net.kill(3);
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 0, 3,
                                          net::MessageKind::Query, 64);
  EXPECT_FALSE(out.delivered);
  EXPECT_NE(std::find(out.dead_found.begin(), out.dead_found.end(), 3u),
            out.dead_found.end())
      << "the dead target must be reported for failover";
  EXPECT_GE(net.traffic().lost, 1u);
}

TEST(ReliableDelivery, DeadSourceSendsNothing) {
  auto net = line_net();
  net.kill(0);
  const routing::Gpsr gpsr(net);
  const auto out = routing::send_reliable(net, gpsr, 0, 3,
                                          net::MessageKind::Query, 64);
  EXPECT_FALSE(out.delivered);
  EXPECT_EQ(net.traffic().total, 0u);
}

TEST(ReliableDelivery, StaleCachedRouteThroughDeadNodeIsNeverReplayed) {
  auto net = random_connected_net(17, 250);
  const routing::Gpsr gpsr(net);
  routing::RouteCacheConfig cache_cfg;
  cache_cfg.max_hops = 0;  // store every route, including long legs
  const routing::RouteCache cache(gpsr, cache_cfg);

  // A pair whose route has an interior node to kill.
  NodeId src = 0, dst = 0, victim = net::kNoNode;
  Rng rng(23);
  const auto n = static_cast<std::int64_t>(net.size());
  for (int trial = 0; trial < 200 && victim == net::kNoNode; ++trial) {
    const auto s = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto d = static_cast<NodeId>(rng.uniform_int(0, n - 1));
    const auto r = gpsr.route_to_node(s, d);
    if (r.delivered && r.path.size() >= 5) {
      src = s;
      dst = d;
      victim = r.path[r.path.size() / 2];
    }
  }
  ASSERT_NE(victim, net::kNoNode) << "no multi-hop pair found";

  // Warm the cache with the route that traverses the victim, then crash
  // the victim behind the cache's back.
  const auto cached = cache.route_to_node(src, dst);
  ASSERT_NE(std::find(cached.path.begin(), cached.path.end(), victim),
            cached.path.end());
  net.kill(victim);

  // First send stalls at the victim, invalidates every cached route
  // through it, and re-routes from the stall point.
  const auto first = routing::send_reliable(net, cache, src, dst,
                                            net::MessageKind::Query, 64);
  if (!first.delivered)
    GTEST_SKIP() << "the kill partitioned src from dst at this seed";
  EXPECT_NE(std::find(first.dead_found.begin(), first.dead_found.end(),
                      victim),
            first.dead_found.end());
  EXPECT_GE(first.retries, 1u);
  EXPECT_GE(cache.stats().invalidated, 1u);

  // Second send: the refreshed cache must route around the corpse with
  // zero lost frames — a replayed stale path would burn an ARQ budget
  // into the dead node again.
  const auto lost_before = net.traffic().lost;
  const auto second = routing::send_reliable(net, cache, src, dst,
                                             net::MessageKind::Query, 64);
  EXPECT_TRUE(second.delivered);
  EXPECT_EQ(second.retries, 0u);
  EXPECT_EQ(net.traffic().lost, lost_before);
  EXPECT_EQ(std::find(second.route.path.begin(), second.route.path.end(),
                      victim),
            second.route.path.end());
}

// --- per-system failover -----------------------------------------------

TEST(Failover, PoolMirrorRestoreGivesFullRecallBeforeQueries) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 3;
  config.pool.replicas = 2;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  // Crash the most loaded storage node, then fail over BEFORE querying.
  NodeId dead = 0;
  for (const auto& node : tb.network(SystemKind::Pool).nodes())
    if (node.stored_events >
        tb.network(SystemKind::Pool).node(dead).stored_events)
      dead = node.id;
  ASSERT_GT(tb.network(SystemKind::Pool).node(dead).stored_events, 0u);
  tb.network(SystemKind::Pool).kill(dead);
  tb.pool().handle_node_failure(dead);

  const auto& fs = tb.pool().fault_stats();
  EXPECT_GE(fs.failovers, 1u);
  EXPECT_GT(fs.events_restored, 0u);
  EXPECT_EQ(fs.events_lost, 0u) << "two mirrors must cover one crash";

  // Failover preceded the queries, so recall is exactly 100%.
  query::QueryGenerator qgen({.dims = 3}, 7);
  Rng sink_rng(8);
  for (int i = 0; i < 20; ++i) {
    const auto q = i % 2 ? qgen.partial_range(1) : qgen.exact_range();
    auto sink = tb.random_node(sink_rng);
    if (sink == dead) sink = (sink + 1) % tb.network(SystemKind::Pool).size();
    const auto r = tb.pool().query(sink, q);
    EXPECT_EQ(sorted_ids(r.events), sorted_ids(tb.oracle().matching(q)))
        << "query " << i;
  }
}

TEST(Failover, PoolWithoutMirrorsLosesExactlyTheDeadNodesEvents) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 11;
  benchsup::Testbed tb(config);
  const auto total = tb.insert_workload();

  NodeId dead = 0;
  for (const auto& node : tb.network(SystemKind::Pool).nodes())
    if (node.stored_events >
        tb.network(SystemKind::Pool).node(dead).stored_events)
      dead = node.id;
  const auto held = tb.network(SystemKind::Pool).node(dead).stored_events;
  ASSERT_GT(held, 0u);
  tb.network(SystemKind::Pool).kill(dead);
  tb.pool().handle_node_failure(dead);

  EXPECT_EQ(tb.pool().fault_stats().events_lost, held);
  EXPECT_EQ(tb.pool().stored_count(), total - held);
  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  const auto r = tb.pool().query(sink, whole_space());
  EXPECT_EQ(r.events.size(), total - held);
}

TEST(Failover, HandleNodeFailureIsIdempotent) {
  benchsup::TestbedConfig config;
  config.nodes = 200;
  config.seed = 13;
  benchsup::Testbed tb(config);
  tb.insert_workload();
  tb.network(SystemKind::Pool).kill(5);
  tb.network(SystemKind::Dim).kill(5);
  tb.pool().handle_node_failure(5);
  tb.dim().handle_node_failure(5);
  const auto pool_once = tb.pool().fault_stats();
  const auto dim_once = tb.dim().fault_stats();
  tb.pool().handle_node_failure(5);
  tb.dim().handle_node_failure(5);
  EXPECT_EQ(tb.pool().fault_stats().failovers, pool_once.failovers);
  EXPECT_EQ(tb.pool().fault_stats().events_lost, pool_once.events_lost);
  EXPECT_EQ(tb.dim().fault_stats().failovers, dim_once.failovers);
  EXPECT_EQ(tb.dim().fault_stats().events_lost, dim_once.events_lost);
}

TEST(Failover, DimNeighborAdoptionKeepsEveryZoneOwnedAndAnswering) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 5;
  benchsup::Testbed tb(config);
  tb.insert_workload();

  const auto& tree = tb.dim().tree();
  const NodeId dead = tree.zone(tree.leaves().front()).owner;
  ASSERT_NE(dead, net::kNoNode);
  tb.network(SystemKind::Dim).kill(dead);
  tb.dim().handle_node_failure(dead);

  EXPECT_GE(tb.dim().fault_stats().failovers, 1u);
  for (const auto leaf : tree.leaves()) {
    const NodeId owner = tree.zone(leaf).owner;
    EXPECT_NE(owner, dead) << "orphaned zone " << leaf;
    if (owner != net::kNoNode) {
      EXPECT_TRUE(tb.network(SystemKind::Dim).alive(owner)) << "zone " << leaf;
    }
  }

  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  const auto r = tb.dim().query(sink, whole_space());
  EXPECT_EQ(r.events.size(), tb.dim().stored_count());
  EXPECT_EQ(tb.dim().stored_count() + tb.dim().fault_stats().events_lost,
            tb.oracle().all().size());
}

TEST(Failover, GhtReclaimsDeadStoreAndKeepsAnswering) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 9;
  config.systems = {SystemKind::Ght};
  benchsup::Testbed tb(config);
  tb.insert_workload();
  storage::DcsSystem& ght = tb.system(SystemKind::Ght);
  Network& ght_net = tb.network(SystemKind::Ght);

  NodeId dead = 0;
  for (const auto& node : ght_net.nodes())
    if (node.stored_events > ght_net.node(dead).stored_events)
      dead = node.id;
  const auto held = ght_net.node(dead).stored_events;
  ASSERT_GT(held, 0u);
  ght_net.kill(dead);
  ght.handle_node_failure(dead);

  EXPECT_EQ(ght.fault_stats().events_lost, held);
  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  const auto r = ght.query(sink, whole_space());
  EXPECT_EQ(r.events.size(), ght.stored_count());
  EXPECT_EQ(ght.stored_count(), tb.oracle().all().size() - held);
}

// A holder that died without being noticed must not answer k-NN: the
// walk absorbs dead holders before it visits a cell, as range queries do.
TEST(Failover, PoolKnnNeverAnswersFromSilentlyDeadHolders) {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 11;
  benchsup::Testbed tb(config);
  const auto total = tb.insert_workload();

  NodeId dead = 0;
  for (const auto& node : tb.network(SystemKind::Pool).nodes())
    if (node.stored_events >
        tb.network(SystemKind::Pool).node(dead).stored_events)
      dead = node.id;
  ASSERT_GT(tb.network(SystemKind::Pool).node(dead).stored_events, 0u);
  tb.network(SystemKind::Pool).kill(dead);  // silently: no handle_node_failure

  const auto sink = dead == 0 ? NodeId{1} : NodeId{0};
  storage::KNearestQuery q;
  q.target = storage::Values{0.5, 0.5, 0.5};
  q.k = total;
  const auto knn = tb.pool().execute(sink, q);
  const auto lost = tb.pool().fault_stats().events_lost;
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(knn.events.size() + lost, total);
  EXPECT_EQ(sorted_ids(knn.events),
            sorted_ids(tb.pool().query(sink, whole_space()).events));
}

// --- lost replies -------------------------------------------------------

/// Loses every route into `target` except from the `spared` sources: the
/// route stops at its source, so such a message arrives only when it
/// starts at the target.
class LoseRoutesInto final : public routing::Router {
 public:
  explicit LoseRoutesInto(const routing::Router& inner) : inner_(inner) {}
  routing::RouteResult route_to_node(NodeId src, NodeId dst) const override {
    if (dst != target ||
        std::find(spared.begin(), spared.end(), src) != spared.end())
      return inner_.route_to_node(src, dst);
    routing::RouteResult lost;
    lost.path = {src};
    lost.delivered = src;
    return lost;
  }
  routing::RouteResult route_to_location(NodeId src,
                                         Point dest) const override {
    return inner_.route_to_location(src, dest);
  }
  NodeId target = net::kNoNode;
  std::vector<NodeId> spared;

 private:
  const routing::Router& inner_;
};

// A result holds only rows whose replies reached the sink: when every
// reply into the sink is lost, Pool (every query class, batch and
// aggregate included), DIM and GHT all answer nothing. The sink is no
// pool's splitter and stores nothing, so nothing arrives by local
// delivery.
TEST(ReplyLoss, NoReplyIntoTheSinkMeansNoAnswer) {
  Network net = random_connected_net(17, 200);
  const routing::Gpsr gpsr(net);
  LoseRoutesInto router(gpsr);
  core::PoolSystem pool(net, router, 3);
  dim::DimSystem dim(net, router, 3);
  ght::GhtSystem ght(net, router, 3);
  query::EventGenerator gen({.dims = 3}, 18);
  for (NodeId n = 0; n < net.size(); ++n) {
    const storage::Event e = gen.next(n);
    for (storage::DcsSystem* sys : {static_cast<storage::DcsSystem*>(&pool),
                                    static_cast<storage::DcsSystem*>(&dim),
                                    static_cast<storage::DcsSystem*>(&ght)})
      sys->insert(n, e);
  }
  for (NodeId n = 0; n < net.size() && router.target == net::kNoNode; ++n) {
    bool splitter = false;
    for (std::size_t d = 0; d < 3; ++d)
      splitter |= pool.splitter_for(d, n) == n;
    if (!splitter && net.node(n).stored_events == 0) router.target = n;
  }
  ASSERT_NE(router.target, net::kNoNode);
  const NodeId sink = router.target;

  EXPECT_TRUE(pool.query(sink, whole_space()).events.empty());
  EXPECT_TRUE(dim.query(sink, whole_space()).events.empty());
  EXPECT_TRUE(ght.query(sink, whole_space()).events.empty());
  const auto batch = pool.query_batch(
      sink, {whole_space(), RangeQuery({{0.0, 0.5}, {0.0, 1.0}, {0.0, 1.0}})});
  for (const auto& r : batch.per_query) EXPECT_TRUE(r.events.empty());
  EXPECT_TRUE(pool.execute(sink, storage::SkylineQuery(3)).events.empty());
  storage::KNearestQuery knn;
  knn.target = storage::Values{0.5, 0.5, 0.5};
  knn.k = 5;
  EXPECT_TRUE(pool.execute(sink, knn).events.empty());
  const auto count =
      pool.aggregate(sink, whole_space(), storage::AggregateKind::Count, 0);
  EXPECT_EQ(count.result.count, 0u);
}

// With workload sharing, an index node that never hears back from its
// delegates (routes into it are lost from everyone but the splitters that
// query it) answers with its own rows only: every Pool operator loses
// exactly those rows — the range answer is the oracle's minus some rows,
// and the batch, the k-NN over everything and the COUNT aggregate agree
// with it.
TEST(ReplyLoss, LostDelegateRepliesDropOnlyTheirRows) {
  Network net = random_connected_net(23, 150);
  const routing::Gpsr gpsr(net);
  LoseRoutesInto router(gpsr);
  core::PoolConfig config;
  config.workload_sharing = true;
  config.share_threshold = 2;
  core::PoolSystem pool(net, router, 3, config);
  storage::BruteForceStore oracle(3);
  query::EventGenerator gen({.dims = 3}, 24);
  for (NodeId n = 0; n < net.size(); ++n) {
    for (int i = 0; i < 4; ++i) {
      const storage::Event e = gen.next(n);
      pool.insert(n, e);
      oracle.insert(n, e);
    }
  }
  const NodeId sink = 0;
  for (std::size_t d = 0; d < 3; ++d)
    router.spared.push_back(pool.splitter_for(d, sink));
  const auto all = sorted_ids(oracle.all());
  std::size_t lossy_targets = 0;
  for (NodeId target = 1; target < net.size(); ++target) {
    // A splitter's lost cell replies would drop whole cells.
    if (std::find(router.spared.begin(), router.spared.end(), target) !=
        router.spared.end())
      continue;
    router.target = target;
    const auto got = sorted_ids(pool.query(sink, whole_space()).events);
    ASSERT_TRUE(std::includes(all.begin(), all.end(), got.begin(), got.end()))
        << "target " << target;
    if (got.size() == all.size()) continue;
    ++lossy_targets;
    const auto batch = pool.query_batch(sink, {whole_space(), whole_space()});
    for (const auto& r : batch.per_query)
      EXPECT_EQ(sorted_ids(r.events), got) << "target " << target;
    storage::KNearestQuery knn;
    knn.target = storage::Values{0.5, 0.5, 0.5};
    knn.k = all.size();
    EXPECT_EQ(sorted_ids(pool.execute(sink, knn).events), got)
        << "target " << target;
    EXPECT_EQ(pool.aggregate(sink, whole_space(), storage::AggregateKind::Count,
                             0)
                  .result.count,
              got.size())
        << "target " << target;
  }
  EXPECT_GT(lossy_targets, 0u) << "no index node had delegates";
}

/// Pool, DIM and GHT on one testbed; `kill` silently kills the same ~15%
/// of the nodes on all three networks.
struct Twin {
  explicit Twin(const benchsup::TestbedConfig& config) : tb(config) {
    tb.insert_workload();
  }
  void kill() {
    Rng rng(99);
    for (NodeId id = 0; id < tb.positions().size(); ++id) {
      if (rng.uniform() >= 0.15) continue;
      for (const SystemKind kind : tb.systems()) tb.network(kind).kill(id);
    }
  }
  std::vector<storage::DcsSystem*> systems() {
    std::vector<storage::DcsSystem*> out;
    for (const SystemKind kind : tb.systems()) out.push_back(&tb.system(kind));
    return out;
  }
  std::vector<Network*> networks() {
    std::vector<Network*> out;
    for (const SystemKind kind : tb.systems()) out.push_back(&tb.network(kind));
    return out;
  }
  Network& ght_net() { return tb.network(SystemKind::Ght); }
  benchsup::Testbed tb;
};

benchsup::TestbedConfig twin_config() {
  benchsup::TestbedConfig config;
  config.nodes = 250;
  config.seed = 21;
  config.systems = {SystemKind::Pool, SystemKind::Dim, SystemKind::Ght};
  return config;
}

/// Three exact ranges, three 1-partial ranges, a point query on a stored
/// event and a repeat of the first range.
std::vector<RangeQuery> batch_of_eight(query::QueryGenerator& qgen,
                                       const storage::Event& e) {
  std::vector<RangeQuery> qs;
  for (int j = 0; j < 3; ++j) qs.push_back(qgen.exact_range());
  for (int j = 0; j < 3; ++j) qs.push_back(qgen.partial_range(1));
  RangeQuery::Bounds b;
  for (const double v : e.values) b.push_back({v, v});
  qs.push_back(RangeQuery(b));
  qs.push_back(qs[0]);
  return qs;
}

// Batching under faults: on two identical deployments after the same
// silent kill, query_batch returns per-query results and visit counts
// identical to serial execute() calls, for Pool, DIM and GHT — and still
// merges (the repeated query alone saves messages).
TEST(OnlineFaults, BatchAfterKillMatchesSerialExecute) {
  Twin batched(twin_config()), serial(twin_config());
  batched.kill();
  serial.kill();
  ASSERT_TRUE(batched.ght_net().has_failures());

  query::QueryGenerator qgen({.dims = 3}, 31);
  Rng sink_rng(32);
  const auto& events = batched.tb.oracle().all();
  for (int round = 0; round < 3; ++round) {
    NodeId sink = batched.tb.random_node(sink_rng);
    while (!batched.ght_net().alive(sink)) sink = (sink + 1) % 250;
    const std::vector<RangeQuery> qs =
        batch_of_eight(qgen, events[round * 97]);

    const auto a = batched.systems();
    const auto s = serial.systems();
    for (std::size_t sys = 0; sys < a.size(); ++sys) {
      const auto batch = a[sys]->query_batch(sink, qs);
      ASSERT_EQ(batch.per_query.size(), qs.size());
      EXPECT_GT(batch.messages_saved, 0u)
          << a[sys]->name() << " round " << round << " did not merge";
      for (std::size_t j = 0; j < qs.size(); ++j) {
        const auto one = s[sys]->execute(sink, qs[j]);
        EXPECT_EQ(batch.per_query[j].events, one.events)
            << a[sys]->name() << " round " << round << " query " << j;
        EXPECT_EQ(batch.per_query[j].index_nodes_visited,
                  one.index_nodes_visited)
            << a[sys]->name() << " round " << round << " query " << j;
      }
    }
  }
}

// A range query is a batch of one: query_batch(sink, {q}) and query(sink,
// q) on twin deployments return the same events, cost triple and visits
// and charge every node the same tx/rx, fault-free and after a kill.
TEST(OnlineFaults, BatchOfOneEqualsQuery) {
  for (const bool faults : {false, true}) {
    Twin batched(twin_config()), single(twin_config());
    if (faults) {
      batched.kill();
      single.kill();
    }
    query::QueryGenerator qgen({.dims = 3}, 41);
    Rng sink_rng(42);
    const auto& events = batched.tb.oracle().all();
    for (int round = 0; round < 2; ++round) {
      NodeId sink = batched.tb.random_node(sink_rng);
      while (!batched.ght_net().alive(sink)) sink = (sink + 1) % 250;
      const auto a = batched.systems();
      const auto s = single.systems();
      const auto an = batched.networks();
      const auto sn = single.networks();
      for (const RangeQuery& q : batch_of_eight(qgen, events[round * 89])) {
        for (std::size_t sys = 0; sys < a.size(); ++sys) {
          const auto batch = a[sys]->query_batch(sink, {q});
          const auto one = s[sys]->query(sink, q);
          ASSERT_EQ(batch.per_query.size(), 1u);
          const std::string where = a[sys]->name() +
                                    (faults ? " after kill" : " fault-free");
          EXPECT_EQ(batch.per_query[0].events, one.events) << where;
          EXPECT_EQ(batch.messages, one.messages) << where;
          EXPECT_EQ(batch.query_messages, one.query_messages) << where;
          EXPECT_EQ(batch.reply_messages, one.reply_messages) << where;
          EXPECT_EQ(batch.per_query[0].index_nodes_visited,
                    one.index_nodes_visited)
              << where;
          EXPECT_EQ(batch.messages_saved, 0u) << where;
          for (NodeId id = 0; id < an[sys]->size(); ++id) {
            ASSERT_EQ(an[sys]->node(id).tx_count, sn[sys]->node(id).tx_count)
                << where << " node " << id;
            ASSERT_EQ(an[sys]->node(id).rx_count, sn[sys]->node(id).rx_count)
                << where << " node " << id;
          }
        }
      }
    }
  }
}

// --- end-to-end through the CLI runner ---------------------------------

TEST(OnlineFaults, TwentyPercentMidRunKillKeepsAllSystemsAnswering) {
  cli::CliConfig config;
  config.systems = {benchsup::SystemKind::Pool, benchsup::SystemKind::Dim,
                    benchsup::SystemKind::Ght};
  config.nodes = 200;
  config.events_per_node = 3;
  config.queries = 30;
  config.flavor = cli::QueryFlavor::OnePartial;
  config.deployments = 1;
  config.threads = 1;
  std::string err;
  ASSERT_TRUE(sim::parse_fault_spec("kill:0.2@15", &config.faults, &err));

  std::ostringstream out;
  const auto rows = cli::run_experiment(config, out);
  ASSERT_EQ(rows.size(), 3u);
  std::uint64_t failovers = 0;
  for (const auto& r : rows) {
    EXPECT_GT(r.recall, 0.3) << benchsup::to_string(r.system)
                             << " stopped answering";
    EXPECT_LE(r.recall, 1.0) << benchsup::to_string(r.system);
    EXPECT_GT(r.mean_results, 0.0) << benchsup::to_string(r.system);
    failovers += r.failovers;
  }
  EXPECT_GE(failovers, 1u) << "a 20% cut must trigger failover somewhere";
  EXPECT_NE(out.str().find("recall"), std::string::npos)
      << "fault columns missing from the report";
}

// Recall compares ids with the full-data oracle. Under a kill, losing
// skyline points uncovers the points they dominated; those extra answers
// are not oracle answers and must not lift recall above 1.
TEST(OnlineFaults, SkylineAndMixRecallNeverExceedsOneUnderKill) {
  for (const auto mix :
       {query::QueryClassMix::Skyline, query::QueryClassMix::Mix}) {
    cli::CliConfig config;
    config.systems = {benchsup::SystemKind::Pool};
    config.nodes = 300;
    config.queries = 40;
    config.query_class = mix;
    config.threads = 1;
    std::string err;
    ASSERT_TRUE(sim::parse_fault_spec("kill:0.2@10", &config.faults, &err));

    std::ostringstream out;
    const auto rows = cli::run_experiment(config, out);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_LE(rows[0].recall, 1.0) << query::to_string(mix);
    EXPECT_GT(rows[0].recall, 0.5) << query::to_string(mix);
  }
}

TEST(OnlineFaults, NeverFiringPlanIsByteIdenticalToDisabled) {
  cli::CliConfig base;
  base.systems = {benchsup::SystemKind::Pool, benchsup::SystemKind::Dim,
                  benchsup::SystemKind::Ght};
  base.nodes = 150;
  base.events_per_node = 3;
  base.queries = 20;
  base.flavor = cli::QueryFlavor::Exact;
  base.deployments = 1;
  base.threads = 1;

  cli::CliConfig armed = base;
  std::string err;
  ASSERT_TRUE(
      sim::parse_fault_spec("node:0@1000000", &armed.faults, &err));

  std::ostringstream sink_a, sink_b;
  const auto plain = cli::run_experiment(base, sink_a);
  const auto never = cli::run_experiment(armed, sink_b);
  ASSERT_EQ(plain.size(), never.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].mean_messages, never[i].mean_messages);
    EXPECT_EQ(plain[i].mean_query_messages, never[i].mean_query_messages);
    EXPECT_EQ(plain[i].mean_reply_messages, never[i].mean_reply_messages);
    EXPECT_EQ(plain[i].mean_results, never[i].mean_results);
    EXPECT_EQ(plain[i].mean_nodes_visited, never[i].mean_nodes_visited);
    EXPECT_EQ(plain[i].insert_messages_per_event,
              never[i].insert_messages_per_event);
    EXPECT_EQ(plain[i].mismatches, 0u);
    EXPECT_EQ(never[i].mismatches, 0u);
    EXPECT_DOUBLE_EQ(never[i].recall, 1.0);
    EXPECT_EQ(never[i].retries, 0u);
    EXPECT_EQ(never[i].failovers, 0u);
    EXPECT_EQ(never[i].events_lost, 0u);
  }
}

}  // namespace
}  // namespace poolnet
