// GPSR — Greedy Perimeter Stateless Routing (Karp & Kung, MobiCom 2000).
//
// The routing substrate shared by Pool, DIM, and GHT-style schemes. Routes
// a packet toward a geographic destination:
//  * greedy mode: forward to the neighbor strictly closest to the
//    destination, while one exists;
//  * perimeter mode: on a local minimum, walk faces of the planarized
//    graph with the right-hand rule, changing faces where edges cross the
//    line from the perimeter-entry point to the destination, until a node
//    closer than the entry point is found (then back to greedy).
//
// Termination: the distance of successive perimeter-entry points to the
// destination strictly decreases, so a packet to a reachable node position
// always arrives. A packet to an arbitrary location terminates when a
// perimeter tour would re-traverse its first edge — it is then delivered
// at the node that started the tour (the GHT "home node" convention, used
// by data-centric storage to make locations addressable).
#pragma once

#include <cstddef>
#include <vector>

#include "common/geometry.h"
#include "net/network.h"
#include "routing/planarization.h"
#include "routing/router.h"

namespace poolnet::routing {

class Gpsr final : public Router {
 public:
  /// Builds the planarized view once; the router itself is stateless
  /// per-packet, exactly like the protocol.
  explicit Gpsr(const net::Network& network,
                PlanarizationRule rule = PlanarizationRule::Gabriel);

  /// Route from `src` to the position of `dst`. On a connected network
  /// this always delivers at `dst`.
  RouteResult route_to_node(net::NodeId src, net::NodeId dst) const override;

  /// Route from `src` toward an arbitrary location; delivers at the home
  /// node (the node whose face tour encloses the location).
  RouteResult route_to_location(net::NodeId src, Point dest) const override;

  /// In-place forms: the path is built directly in `out.path`, so a warm
  /// scratch RouteResult routes with zero allocations.
  void route_to_node_into(net::NodeId src, net::NodeId dst,
                          RouteResult& out) const override;
  void route_to_location_into(net::NodeId src, Point dest,
                              RouteResult& out) const override;

  const PlanarGraph& planar() const { return planar_; }

 private:
  void route_impl(net::NodeId src, Point dest, net::NodeId exact_target,
                  RouteResult& result) const;

  /// First living planar neighbor of `at` counter-clockwise from direction
  /// `ref_angle`, ties to the lower id. `skip` (the node the packet came
  /// from, or kNoNode) ranks last, so the right-hand rule bounces straight
  /// back only when no other edge exists.
  net::NodeId first_ccw_neighbor(net::NodeId at, double ref_angle,
                                 net::NodeId skip) const;

  const net::Network& net_;
  PlanarGraph planar_;
};

}  // namespace poolnet::routing
