#include "net/fault_injector.h"

#include <algorithm>

#include "common/assert.h"

namespace poolnet::net {

FaultInjector::FaultInjector(sim::FaultPlan plan,
                             std::span<const Point> positions,
                             std::vector<Network*> nets)
    : plan_(std::move(plan)),
      positions_(positions.begin(), positions.end()),
      alive_(positions.size(), 1),
      nets_(std::move(nets)),
      rng_(plan_.seed) {
  for (const Network* n : nets_) {
    POOLNET_ASSERT(n != nullptr);
    POOLNET_ASSERT_MSG(n->size() == positions_.size(),
                       "FaultInjector: networks must be co-deployed");
  }
}

void FaultInjector::kill_everywhere(NodeId id, std::vector<NodeId>* newly) {
  if (!alive_[id]) return;
  alive_[id] = 0;
  for (Network* n : nets_) n->kill(id);
  newly->push_back(id);
  ++killed_;
}

std::vector<NodeId> FaultInjector::advance(double now) {
  std::vector<NodeId> newly;
  const auto world_size = static_cast<NodeId>(positions_.size());
  while (next_ < plan_.actions.size() && plan_.actions[next_].at <= now) {
    const sim::FaultAction& a = plan_.actions[next_++];
    switch (a.kind) {
      case sim::FaultKind::KillNode:
        if (a.node < world_size) kill_everywhere(a.node, &newly);
        break;
      case sim::FaultKind::KillFraction: {
        // Sample without replacement from the current survivors so
        // repeated kill clauses compose (partial Fisher–Yates).
        std::vector<NodeId> pool;
        pool.reserve(world_size);
        for (NodeId id = 0; id < world_size; ++id)
          if (alive_[id]) pool.push_back(id);
        std::size_t want = static_cast<std::size_t>(
            a.fraction * static_cast<double>(pool.size()) + 0.5);
        want = std::min(want, pool.size());
        for (std::size_t i = 0; i < want; ++i) {
          const std::size_t j = static_cast<std::size_t>(rng_.uniform_int(
              static_cast<std::int64_t>(i),
              static_cast<std::int64_t>(pool.size()) - 1));
          std::swap(pool[i], pool[j]);
          kill_everywhere(pool[i], &newly);
        }
        break;
      }
      case sim::FaultKind::Blackout:
        for (NodeId id = 0; id < world_size; ++id)
          if (alive_[id] && distance(positions_[id], a.center) <= a.radius)
            kill_everywhere(id, &newly);
        break;
      case sim::FaultKind::DegradeStart:
        for (Network* n : nets_) n->set_extra_loss(a.extra_loss);
        break;
      case sim::FaultKind::DegradeEnd:
        for (Network* n : nets_) n->set_extra_loss(0.0);
        break;
    }
  }
  return newly;
}

}  // namespace poolnet::net
