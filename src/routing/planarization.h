// Local planarization of the unit-disk graph.
//
// GPSR's perimeter mode requires a planar subgraph. Both standard local
// rules are implemented:
//  * Gabriel graph (GG): keep (u,v) unless some witness w lies strictly
//    inside the circle with diameter uv. Denser than RNG, shorter detours.
//  * Relative neighborhood graph (RNG): keep (u,v) unless some w is
//    strictly closer to both u and v than they are to each other.
//
// Both rules are computable from one-hop neighbor tables only (every
// candidate witness for an edge within radio range is itself within range
// of both endpoints), preserve connectivity of a connected unit-disk graph,
// and yield planar graphs when node positions are in general position.
#pragma once

#include <span>
#include <vector>

#include "net/network.h"

namespace poolnet::routing {

enum class PlanarizationRule { Gabriel, RelativeNeighborhood };

/// The planar subgraph: per-node adjacency (sorted by id, symmetric),
/// packed in CSR form like Network's neighbor tables.
class PlanarGraph {
 public:
  PlanarGraph(const net::Network& network, PlanarizationRule rule);

  std::span<const net::NodeId> neighbors(net::NodeId id) const {
    POOLNET_ASSERT(id + std::size_t{1} < offsets_.size());
    return {ids_.data() + offsets_[id], ids_.data() + offsets_[id + 1]};
  }
  bool has_edge(net::NodeId a, net::NodeId b) const;
  std::size_t edge_count() const { return ids_.size() / 2; }  ///< undirected
  PlanarizationRule rule() const { return rule_; }

  /// True when the planar subgraph is connected (it must be whenever the
  /// underlying unit-disk graph is).
  bool is_connected() const;

 private:
  std::size_t size() const { return offsets_.size() - 1; }

  std::vector<std::uint32_t> offsets_;  ///< size()+1 entries into ids_
  std::vector<net::NodeId> ids_;
  PlanarizationRule rule_;
};

}  // namespace poolnet::routing
