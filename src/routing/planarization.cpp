#include "routing/planarization.h"

#include <algorithm>

#include "common/assert.h"

namespace poolnet::routing {

using net::NodeId;

namespace {

// Both witness tests scan u's unit-disk table; its ids are < n by the
// Network constructor's check, so `pos` is indexed unchecked.

bool gabriel_keeps(std::span<const Point> pos,
                   std::span<const NodeId> u_neighbors, NodeId u, NodeId v) {
  const Point pu = pos[u];
  const Point pv = pos[v];
  const Point mid = {(pu.x + pv.x) / 2.0, (pu.y + pv.y) / 2.0};
  const double r2 = distance_sq(pu, pv) / 4.0;
  if (r2 == 0.0) return false;  // coincident nodes: no planar edge
  for (const NodeId w : u_neighbors) {
    if (w == v) continue;
    if (distance_sq(pos[w], mid) < r2) return false;
  }
  return true;
}

bool rng_keeps(std::span<const Point> pos, std::span<const NodeId> u_neighbors,
               NodeId u, NodeId v) {
  const Point pu = pos[u];
  const Point pv = pos[v];
  const double duv2 = distance_sq(pu, pv);
  if (duv2 == 0.0) return false;
  for (const NodeId w : u_neighbors) {
    if (w == v) continue;
    const Point pw = pos[w];
    if (distance_sq(pu, pw) < duv2 && distance_sq(pv, pw) < duv2) return false;
  }
  return true;
}

}  // namespace

PlanarGraph::PlanarGraph(const net::Network& network, PlanarizationRule rule)
    : offsets_(network.size() + 1, 0), rule_(rule) {
  // Pass 1: test each undirected unit-disk edge once (u < v, from u's
  // table) and count the kept ones per endpoint.
  const auto pos = network.positions();
  std::vector<std::pair<NodeId, NodeId>> kept;
  for (NodeId u = 0; u < network.size(); ++u) {
    const auto nb = network.neighbors(u);
    for (const NodeId v : nb) {
      if (v < u) continue;
      const bool keep = rule == PlanarizationRule::Gabriel
                            ? gabriel_keeps(pos, nb, u, v)
                            : rng_keeps(pos, nb, u, v);
      if (keep) {
        kept.emplace_back(u, v);
        ++offsets_[u + 1];
        ++offsets_[v + 1];
      }
    }
  }
  for (std::size_t i = 1; i < offsets_.size(); ++i)
    offsets_[i] += offsets_[i - 1];
  // Pass 2: scatter. `kept` is ordered by (u, v), so node x first receives
  // its lower neighbors (from edges (w, x), w ascending) and then its
  // higher ones (from edges (x, v), v ascending): each row comes out
  // ascending without a sort.
  ids_.resize(offsets_.back());
  std::vector<std::uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, v] : kept) {
    ids_[fill[u]++] = v;
    ids_[fill[v]++] = u;
  }
}

bool PlanarGraph::has_edge(NodeId a, NodeId b) const {
  const auto nb = neighbors(a);
  return std::binary_search(nb.begin(), nb.end(), b);
}

bool PlanarGraph::is_connected() const {
  const std::size_t n = size();
  if (n == 0) return true;
  std::vector<char> seen(n, 0);
  std::vector<NodeId> stack{0};
  seen[0] = 1;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const NodeId u = stack.back();
    stack.pop_back();
    ++visited;
    for (const NodeId v : neighbors(u)) {
      if (!seen[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    }
  }
  return visited == n;
}

}  // namespace poolnet::routing
