// Continuous queries and the continuous nearest-neighbor monitor (the
// paper's Section 6 future work, built on Pool's standing subscriptions).
#include <gtest/gtest.h>

#include <cmath>

#include "bench_support/testbed.h"
#include "common/error.h"
#include "core/nearest_monitor.h"
#include "query/workload.h"

namespace poolnet::core {
namespace {

using benchsup::SystemKind;
using net::NodeId;
using storage::Event;
using storage::RangeQuery;
using storage::Values;

Event event_of(std::uint64_t id, std::initializer_list<double> vals,
               NodeId source = 0) {
  Event e;
  e.id = id;
  e.source = source;
  for (const double v : vals) e.values.push_back(v);
  return e;
}

struct Fixture {
  explicit Fixture(std::uint64_t seed = 1, std::size_t nodes = 250) {
    benchsup::TestbedConfig config;
    config.nodes = nodes;
    config.seed = seed;
    tb = std::make_unique<benchsup::Testbed>(config);
  }
  PoolSystem& pool() { return tb->pool(); }
  net::Network& network() { return tb->network(SystemKind::Pool); }
  std::unique_ptr<benchsup::Testbed> tb;
};

TEST(ContinuousQuery, NotifiesOnMatchingInsert) {
  Fixture fx;
  const RangeQuery q({{0.4, 0.6}, {0.3, 0.5}, {0.0, 0.3}});
  const auto sub = fx.pool().subscribe(9, q);

  fx.pool().insert(0, event_of(1, {0.5, 0.4, 0.1}));   // matches
  fx.pool().insert(0, event_of(2, {0.9, 0.4, 0.1}));   // V1 out of range

  const auto notes = fx.pool().take_notifications(sub);
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].event.id, 1u);
  EXPECT_EQ(notes[0].subscription, sub);
  // Drained: a second take returns nothing.
  EXPECT_TRUE(fx.pool().take_notifications(sub).empty());
}

TEST(ContinuousQuery, EventsBeforeSubscriptionAreNotNotified) {
  Fixture fx(2);
  const RangeQuery q({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  fx.pool().insert(0, event_of(1, {0.5, 0.4, 0.1}));
  const auto sub = fx.pool().subscribe(3, q);
  EXPECT_TRUE(fx.pool().take_notifications(sub).empty());
  fx.pool().insert(0, event_of(2, {0.2, 0.1, 0.05}));
  EXPECT_EQ(fx.pool().take_notifications(sub).size(), 1u);
}

TEST(ContinuousQuery, CatchesEveryMatchingInsertUnderLoad) {
  Fixture fx(3);
  const RangeQuery q({{0.6, 0.9}, {0.0, 0.7}, {0.0, 0.7}});
  const auto sub = fx.pool().subscribe(0, q);
  query::EventGenerator gen({.dims = 3}, 33);
  std::size_t expected = 0;
  for (int i = 0; i < 600; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % fx.network().size()));
    if (q.matches(e)) ++expected;
    fx.pool().insert(e.source, e);
  }
  ASSERT_GT(expected, 0u);
  EXPECT_EQ(fx.pool().take_notifications(sub).size(), expected);
}

TEST(ContinuousQuery, PartialMatchSubscriptionsWork) {
  Fixture fx(4);
  RangeQuery::Bounds b{{0, 0}, {0, 0}, {0.8, 0.9}};
  FixedVec<bool, storage::kMaxDims> spec{false, false, true};
  const RangeQuery q(b, spec);
  const auto sub = fx.pool().subscribe(5, q);
  fx.pool().insert(0, event_of(1, {0.1, 0.2, 0.85}));  // matches (d1 = 2)
  fx.pool().insert(0, event_of(2, {0.95, 0.2, 0.85})); // matches (d1 = 0)
  fx.pool().insert(0, event_of(3, {0.95, 0.2, 0.5}));  // no match
  EXPECT_EQ(fx.pool().take_notifications(sub).size(), 2u);
}

TEST(ContinuousQuery, UnsubscribeStopsNotifications) {
  Fixture fx(5);
  const RangeQuery q({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  const auto sub = fx.pool().subscribe(2, q);
  EXPECT_EQ(fx.pool().active_subscriptions(), 1u);
  fx.pool().unsubscribe(sub);
  EXPECT_EQ(fx.pool().active_subscriptions(), 0u);
  fx.pool().insert(0, event_of(1, {0.5, 0.5, 0.5}));
  EXPECT_TRUE(fx.pool().take_notifications(sub).empty());
  // Unknown / double unsubscribe is a no-op.
  fx.pool().unsubscribe(sub);
  fx.pool().unsubscribe(987654);
}

TEST(ContinuousQuery, RegistrationChargesControlTraffic) {
  Fixture fx(6);
  const auto before = fx.network().traffic().of(net::MessageKind::Control);
  const RangeQuery q({{0.4, 0.6}, {0.3, 0.5}, {0.0, 0.3}});
  const auto sub = fx.pool().subscribe(9, q);
  const auto after_sub = fx.network().traffic().of(net::MessageKind::Control);
  EXPECT_GT(after_sub, before);
  fx.pool().unsubscribe(sub);
  EXPECT_GT(fx.network().traffic().of(net::MessageKind::Control), after_sub);
}

TEST(ContinuousQuery, NotificationChargesReplyPath) {
  Fixture fx(7);
  const RangeQuery q({{0.4, 0.6}, {0.3, 0.5}, {0.0, 0.3}});
  const auto sub = fx.pool().subscribe(9, q);
  const auto before = fx.network().traffic().of(net::MessageKind::Reply);
  fx.pool().insert(0, event_of(1, {0.5, 0.4, 0.1}));
  EXPECT_GT(fx.network().traffic().of(net::MessageKind::Reply), before);
  (void)sub;
}

TEST(ContinuousQuery, MultipleSubscribersEachNotified) {
  Fixture fx(8);
  const RangeQuery qa({{0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0}});
  const RangeQuery qb({{0.4, 0.6}, {0.0, 0.6}, {0.0, 0.6}});
  const auto sa = fx.pool().subscribe(1, qa);
  const auto sb = fx.pool().subscribe(2, qb);
  fx.pool().insert(0, event_of(1, {0.5, 0.4, 0.1}));  // matches both
  fx.pool().insert(0, event_of(2, {0.9, 0.4, 0.1}));  // matches only qa
  EXPECT_EQ(fx.pool().take_notifications(sa).size(), 2u);
  EXPECT_EQ(fx.pool().take_notifications(sb).size(), 1u);
}

TEST(ContinuousQuery, DimensionMismatchThrows) {
  Fixture fx(9, 150);
  EXPECT_THROW(fx.pool().subscribe(0, RangeQuery({{0.0, 1.0}})),
               poolnet::ConfigError);
}

// --- continuous nearest-neighbor monitoring --------------------------------

TEST(NearestMonitor, TracksChampionAcrossInserts) {
  Fixture fx(10);
  const Values target{0.5, 0.5, 0.5};
  NearestMonitor monitor(fx.pool(), 0, target);
  EXPECT_FALSE(monitor.nearest().has_value());  // store empty

  fx.pool().insert(0, event_of(1, {0.9, 0.1, 0.2}));
  ASSERT_TRUE(monitor.poll());
  EXPECT_EQ(monitor.nearest()->id, 1u);

  fx.pool().insert(0, event_of(2, {0.55, 0.5, 0.5}));  // much closer
  ASSERT_TRUE(monitor.poll());
  EXPECT_EQ(monitor.nearest()->id, 2u);
  EXPECT_NEAR(monitor.distance(), 0.05, 1e-12);

  fx.pool().insert(0, event_of(3, {0.9, 0.9, 0.9}));  // farther: ignored
  EXPECT_FALSE(monitor.poll());
  EXPECT_EQ(monitor.nearest()->id, 2u);
}

TEST(NearestMonitor, AgreesWithFreshSearchUnderRandomStream) {
  Fixture fx(11);
  const Values target{0.3, 0.7, 0.2};
  NearestMonitor monitor(fx.pool(), 4, target);
  query::EventGenerator gen({.dims = 3}, 44);
  for (int i = 0; i < 400; ++i) {
    const auto e = gen.next(static_cast<NodeId>(i % fx.network().size()));
    fx.pool().insert(e.source, e);
    monitor.poll();
  }
  // The fresh search goes through the unified request surface, the same
  // k-NN path the monitor's initial resolve takes.
  const storage::QueryReceipt fresh =
      fx.pool().execute(4, storage::KNearestQuery{target, 1, 0.05});
  ASSERT_FALSE(fresh.events.empty());
  ASSERT_TRUE(monitor.nearest().has_value());
  const double fresh_distance =
      std::sqrt(storage::squared_distance(target, fresh.events.front().values));
  EXPECT_NEAR(monitor.distance(), fresh_distance, 1e-12);
}

TEST(NearestMonitor, PicksUpPreexistingEvents) {
  Fixture fx(12);
  fx.pool().insert(0, event_of(1, {0.2, 0.3, 0.4}));
  NearestMonitor monitor(fx.pool(), 0, Values{0.2, 0.3, 0.4});
  ASSERT_TRUE(monitor.nearest().has_value());
  EXPECT_DOUBLE_EQ(monitor.distance(), 0.0);
}

TEST(NearestMonitor, TightensSubscriptionAsChampionImproves) {
  Fixture fx(13);
  const Values target{0.5, 0.5, 0.5};
  NearestMonitor monitor(fx.pool(), 0, target);
  // A sequence of ever-closer events must trigger re-registration.
  fx.pool().insert(0, event_of(1, {0.9, 0.9, 0.9}));
  monitor.poll();
  fx.pool().insert(0, event_of(2, {0.6, 0.6, 0.6}));
  monitor.poll();
  fx.pool().insert(0, event_of(3, {0.51, 0.51, 0.51}));
  monitor.poll();
  EXPECT_GE(monitor.retightenings(), 1u);
  EXPECT_EQ(monitor.nearest()->id, 3u);
}

TEST(NearestMonitor, DestructorCleansUpSubscription) {
  Fixture fx(14, 150);
  {
    NearestMonitor monitor(fx.pool(), 0, Values{0.5, 0.5, 0.5});
    EXPECT_EQ(fx.pool().active_subscriptions(), 1u);
  }
  EXPECT_EQ(fx.pool().active_subscriptions(), 0u);
}

TEST(NearestMonitor, RejectsBadArguments) {
  Fixture fx(15, 150);
  EXPECT_THROW(NearestMonitor(fx.pool(), 0, Values{0.5, 0.5}),
               poolnet::ConfigError);
  EXPECT_THROW(NearestMonitor(fx.pool(), 0, Values{0.5, 0.5, 0.5}, 1.5),
               poolnet::ConfigError);
}

}  // namespace
}  // namespace poolnet::core
