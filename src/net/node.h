// Sensor node state.
#pragma once

#include <cstdint>

namespace poolnet::net {

/// Dense node identifier, 0..n-1 within a Network.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kNoNode = static_cast<NodeId>(-1);

/// A sensor node's ledger record: its id plus the counters the traffic
/// ledger (Network::transmit_*) and the DCS systems (stored_events) keep.
/// Position, liveness and neighbor tables are hot routing data and live in
/// Network's flat arrays instead (position(), alive(), neighbors()). One
/// hop updates several of these counters at once, so they share one record.
struct Node {
  NodeId id = kNoNode;
  std::uint64_t tx_count = 0;       ///< messages transmitted
  std::uint64_t rx_count = 0;       ///< messages received
  std::uint64_t retry_count = 0;    ///< ARQ retransmissions (attempts beyond 1)
  std::uint64_t drop_count = 0;     ///< frames abandoned after the ARQ budget
  std::uint64_t stored_events = 0;  ///< events resident at this node
  double energy_spent_j = 0.0;      ///< radio energy consumed
};

}  // namespace poolnet::net
