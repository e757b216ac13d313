#include "net/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>

#include "common/assert.h"
#include "common/error.h"
#include "net/deployment.h"
#include "routing/gpsr.h"

namespace poolnet::net {
namespace {

std::vector<NodeId> to_vector(std::span<const NodeId> ids) {
  return {ids.begin(), ids.end()};
}

Network make_line_network() {
  // Four nodes in a line, 30 m apart, radio range 40 m: each node hears
  // only its immediate neighbors.
  std::vector<Point> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}};
  return Network(pts, Rect{0, 0, 100, 10}, 40.0);
}

TEST(Network, NeighborTablesAreSymmetricAndRanged) {
  const auto net = make_line_network();
  EXPECT_EQ(to_vector(net.neighbors(0)), (std::vector<NodeId>{1}));
  EXPECT_EQ(to_vector(net.neighbors(1)), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(to_vector(net.neighbors(2)), (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(to_vector(net.neighbors(3)), (std::vector<NodeId>{2}));
  EXPECT_TRUE(net.are_neighbors(1, 2));
  EXPECT_FALSE(net.are_neighbors(0, 2));
}

TEST(Network, SymmetryHoldsOnRandomDeployments) {
  Rng rng(17);
  const Rect field{0, 0, 300, 300};
  const auto pts = deploy_uniform(200, field, rng);
  const Network net(pts, field, 40.0);
  for (NodeId u = 0; u < net.size(); ++u) {
    for (const NodeId v : net.neighbors(u)) {
      EXPECT_TRUE(net.are_neighbors(v, u)) << u << " " << v;
      EXPECT_LE(distance(net.position(u), net.position(v)), 40.0);
    }
  }
}

// The O(n^2) reference: j is a neighbor of i when j != i and their
// distance is within `range` (the spatial index's <= r^2 test), in
// ascending id order.
std::vector<std::vector<NodeId>> brute_force_tables(
    const std::vector<Point>& pts, double range) {
  std::vector<std::vector<NodeId>> tables(pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = 0; j < pts.size(); ++j) {
      const double dx = pts[j].x - pts[i].x;
      const double dy = pts[j].y - pts[i].y;
      if (j != i && dx * dx + dy * dy <= range * range)
        tables[i].push_back(static_cast<NodeId>(j));
    }
  return tables;
}

void expect_tables_match_brute_force(const std::vector<Point>& pts,
                                     const Rect& field, double range) {
  const Network net(pts, field, range);
  const auto expected = brute_force_tables(pts, range);
  std::size_t entries = 0;
  for (NodeId u = 0; u < net.size(); ++u) {
    const auto nb = net.neighbors(u);
    EXPECT_EQ(to_vector(nb), expected[u]) << "node " << u;
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end())) << "node " << u;
    for (const NodeId v : nb) {
      EXPECT_NE(v, u) << "self-loop at " << u;
      EXPECT_TRUE(net.are_neighbors(v, u)) << u << " " << v;
    }
    entries += nb.size();
  }
  EXPECT_DOUBLE_EQ(net.average_degree(), static_cast<double>(entries) /
                                             static_cast<double>(net.size()));
}

TEST(Network, CsrTablesMatchBruteForceScan) {
  for (const std::uint64_t seed : {3u, 17u, 99u, 2024u}) {
    Rng rng(seed);
    const double side = field_side_for_density(400, 40.0, 20.0);
    const Rect field{0, 0, side, side};
    expect_tables_match_brute_force(deploy_uniform(400, field, rng), field,
                                    40.0);
  }
}

TEST(Network, CsrTablesWithCoincidentPoints) {
  // Three nodes on one spot hear each other and node 3; node 4 is alone;
  // nodes 5 and 6 share a spot at exactly the radio range from node 3.
  const std::vector<Point> pts{{5, 5},  {5, 5},   {5, 5},  {20, 5},
                               {200, 5}, {60, 5}, {60, 5}};
  expect_tables_match_brute_force(pts, Rect{0, 0, 210, 10}, 40.0);
  const Network net(pts, Rect{0, 0, 210, 10}, 40.0);
  EXPECT_EQ(to_vector(net.neighbors(1)), (std::vector<NodeId>{0, 2, 3}));
  EXPECT_EQ(to_vector(net.neighbors(3)), (std::vector<NodeId>{0, 1, 2, 5, 6}));
  EXPECT_TRUE(net.neighbors(4).empty());
}

TEST(Network, SingleNodeNetwork) {
  const Network net({{3, 4}}, Rect{0, 0, 10, 10}, 40.0);
  EXPECT_EQ(net.size(), 1u);
  EXPECT_TRUE(net.neighbors(0).empty());
  EXPECT_EQ(net.positions().size(), 1u);
  EXPECT_EQ(net.position(0).x, 3.0);
  EXPECT_TRUE(net.alive(0));
  EXPECT_TRUE(net.is_connected());
  EXPECT_DOUBLE_EQ(net.average_degree(), 0.0);
  EXPECT_EQ(net.nearest_alive_node({9, 9}), 0u);
}

TEST(Network, HotAccessorsAssertOnCallerIds) {
  auto net = make_line_network();
  EXPECT_THROW(net.position(4), AssertionError);
  EXPECT_THROW(net.neighbors(4), AssertionError);
  EXPECT_THROW(net.alive(4), AssertionError);
  EXPECT_THROW(net.kill(4), AssertionError);
  EXPECT_THROW(net.node(4), AssertionError);
}

TEST(Network, PositionsAndAliveMapTrackTheDeployment) {
  const std::vector<Point> pts{{0, 0}, {30, 0}, {60, 0}, {90, 0}};
  Network net(pts, Rect{0, 0, 100, 10}, 40.0);
  ASSERT_EQ(net.positions().size(), pts.size());
  for (NodeId id = 0; id < pts.size(); ++id) {
    EXPECT_EQ(net.positions()[id].x, pts[id].x);
    EXPECT_EQ(net.position(id).x, pts[id].x);
  }
  net.kill(2);
  net.kill(2);  // idempotent
  EXPECT_EQ(net.dead_count(), 1u);
  EXPECT_FALSE(net.alive(2));
  EXPECT_EQ(net.alive_map()[2], 0);
  EXPECT_EQ(net.alive_map()[1], 1);
  EXPECT_EQ(net.nearest_alive_node({61, 0}), 3u);
}

TEST(Network, NearestNode) {
  const auto net = make_line_network();
  EXPECT_EQ(net.nearest_node({5, 0}), 0u);
  EXPECT_EQ(net.nearest_node({46, 0}), 2u);
  EXPECT_EQ(net.nearest_node({500, 0}), 3u);
}

TEST(Network, NodesWithin) {
  const auto net = make_line_network();
  EXPECT_EQ(net.nodes_within({45, 0}, 16).size(), 2u);
  EXPECT_EQ(net.nodes_within({45, 0}, 50).size(), 4u);
}

TEST(Network, ConnectivityDetection) {
  const auto net = make_line_network();
  EXPECT_TRUE(net.is_connected());
  std::vector<Point> split{{0, 0}, {10, 0}, {500, 0}, {510, 0}};
  const Network broken(split, Rect{0, 0, 600, 10}, 40.0);
  EXPECT_FALSE(broken.is_connected());
}

TEST(Network, AverageDegreeNearDensityTarget) {
  Rng rng(23);
  const double side = field_side_for_density(900, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  const auto pts = deploy_uniform(900, field, rng);
  const Network net(pts, field, 40.0);
  // Border effects pull the average a bit below 20.
  EXPECT_GT(net.average_degree(), 14.0);
  EXPECT_LT(net.average_degree(), 22.0);
}

TEST(Network, TransmitChargesLedgerAndNodes) {
  auto net = make_line_network();
  net.transmit(0, 1, MessageKind::Insert, 256);
  net.transmit(1, 2, MessageKind::Reply, 256);
  EXPECT_EQ(net.traffic().total, 2u);
  EXPECT_EQ(net.traffic().of(MessageKind::Insert), 1u);
  EXPECT_EQ(net.traffic().of(MessageKind::Reply), 1u);
  EXPECT_EQ(net.node(0).tx_count, 1u);
  EXPECT_EQ(net.node(1).rx_count, 1u);
  EXPECT_EQ(net.node(1).tx_count, 1u);
  EXPECT_GT(net.node(0).energy_spent_j, 0.0);
  EXPECT_GT(net.traffic().energy_j, 0.0);
}

TEST(Network, SelfTransmitIsFree) {
  auto net = make_line_network();
  net.transmit(2, 2, MessageKind::Query, 128);
  EXPECT_EQ(net.traffic().total, 0u);
}

TEST(Network, TransmitBetweenNonNeighborsAsserts) {
  auto net = make_line_network();
  EXPECT_THROW(net.transmit(0, 3, MessageKind::Query, 64), AssertionError);
}

TEST(Network, TransmitPathChargesEveryHop) {
  auto net = make_line_network();
  net.transmit_path({0, 1, 2, 3}, MessageKind::Query, 64);
  EXPECT_EQ(net.traffic().total, 3u);
  net.transmit_path({2}, MessageKind::Query, 64);  // single node: no hop
  EXPECT_EQ(net.traffic().total, 3u);
}

TEST(Network, ResetAccountingClearsEverything) {
  auto net = make_line_network();
  net.transmit(0, 1, MessageKind::Insert, 256);
  net.node_mut(1).stored_events = 5;
  net.reset_all_accounting();
  EXPECT_EQ(net.traffic().total, 0u);
  EXPECT_EQ(net.node(0).tx_count, 0u);
  EXPECT_EQ(net.node(1).stored_events, 0u);
  EXPECT_DOUBLE_EQ(net.node(0).energy_spent_j, 0.0);
}

TEST(Network, TallySubtractionGivesDeltas) {
  auto net = make_line_network();
  net.transmit(0, 1, MessageKind::Query, 64);
  const auto before = net.traffic();
  net.transmit(1, 2, MessageKind::Reply, 64);
  net.transmit(2, 3, MessageKind::Reply, 64);
  const auto delta = net.traffic() - before;
  EXPECT_EQ(delta.total, 2u);
  EXPECT_EQ(delta.of(MessageKind::Reply), 2u);
  EXPECT_EQ(delta.of(MessageKind::Query), 0u);
}

TEST(Network, RejectsDegenerateConfigs) {
  std::vector<Point> pts{{0, 0}};
  EXPECT_THROW(Network({}, Rect{0, 0, 10, 10}, 40.0), ConfigError);
  EXPECT_THROW(Network(pts, Rect{0, 0, 10, 10}, 0.0), ConfigError);
}

// --- golden route fingerprint ---------------------------------------------

// FNV-1a over every field of a RouteResult that callers consume.
struct RouteHash {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix(const routing::RouteResult& r) {
    mix(r.path.size());
    for (const NodeId n : r.path) mix(n);
    mix(r.delivered);
    mix(r.exact ? 1 : 0);
    mix(r.perimeter_hops);
  }
};

struct Fingerprint {
  std::uint64_t hash = 0;
  std::size_t perimeter_hops = 0;
};

// 2k node routes and 2k location routes between living nodes of `net`.
Fingerprint route_fingerprint(const Network& net, std::uint64_t seed) {
  const routing::Gpsr gpsr(net);
  Rng rng(seed);
  const auto pick_alive = [&] {
    for (;;) {
      const auto id = static_cast<NodeId>(
          rng.uniform_int(0, static_cast<std::int64_t>(net.size()) - 1));
      if (net.alive(id)) return id;
    }
  };
  RouteHash h;
  Fingerprint fp;
  routing::RouteResult r;
  for (int i = 0; i < 2000; ++i) {
    const NodeId src = pick_alive();
    const NodeId dst = pick_alive();
    gpsr.route_to_node_into(src, dst, r);
    h.mix(r);
    fp.perimeter_hops += r.perimeter_hops;
  }
  const Rect& f = net.field();
  for (int i = 0; i < 2000; ++i) {
    const NodeId src = pick_alive();
    const Point dest{rng.uniform(f.min_x, f.max_x),
                     rng.uniform(f.min_y, f.max_y)};
    gpsr.route_to_location_into(src, dest, r);
    h.mix(r);
    fp.perimeter_hops += r.perimeter_hops;
  }
  fp.hash = h.h;
  return fp;
}

// Captured on the vector-of-vectors layout this CSR layout replaced; any
// change to a path, delivery node, exactness or perimeter count moves it.
constexpr std::uint64_t kGoldenLive = 0xc5ea487a31e978eaull;
constexpr std::uint64_t kGoldenAfterKills = 0x50319b1c9d2cb66dull;

TEST(Network, GoldenRouteFingerprint) {
  const std::size_t n = 10000;
  const double side = field_side_for_density(n, 40.0, 20.0);
  const Rect field{0, 0, side, side};
  Rng deploy(0x9e3779b9);
  Network net(deploy_uniform(n, field, deploy), field, 40.0);
  ASSERT_TRUE(net.is_connected());

  const Fingerprint live = route_fingerprint(net, 11);
  EXPECT_GT(live.perimeter_hops, 0u);

  // A hole of dead nodes in the middle of the field forces perimeter
  // detours around it on top of the border voids.
  for (NodeId id = 0; id < net.size(); ++id) {
    if (distance(net.position(id), field.center()) < 120.0) net.kill(id);
  }
  for (NodeId id = 0; id < net.size(); id += 97) net.kill(id);
  ASSERT_GT(net.dead_count(), 100u);
  const Fingerprint killed = route_fingerprint(net, 12);
  EXPECT_GT(killed.perimeter_hops, live.perimeter_hops);

  EXPECT_EQ(live.hash, kGoldenLive);
  EXPECT_EQ(killed.hash, kGoldenAfterKills);
}

TEST(MessageSizes, BitFormulas) {
  const MessageSizes s;
  EXPECT_EQ(s.event_bits(3), s.header_bits + 3 * s.attr_bits);
  EXPECT_EQ(s.query_bits(3), s.header_bits + 6 * s.query_bound_bits);
  EXPECT_EQ(s.reply_bits(3, 4), s.header_bits + 12 * s.attr_bits);
}

}  // namespace
}  // namespace poolnet::net
