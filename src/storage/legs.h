// The leg layer every distributed DCS system sends through.
//
// A query walk (Pool's sink → splitter → cell tree, DIM's zone split,
// GHT's home probe and flood replies) is a sequence of point-to-point
// legs. Legs owns the three things each of those legs needs:
//
//  * send(): one reliable leg (routing::send_reliable) that accumulates
//    retry / failed-leg counters and runs the owner's failover for every
//    node the delivery found dead. Self legs are free and skip the router.
//  * send_resolved(): "send, re-resolve the target, retry once" — when a
//    leg fails, failover may have re-elected the target (Pool index nodes
//    and splitters, DIM representatives and zone owners, GHT homes), so
//    the sender tries once more toward the new election.
//  * reply() / reply_partial(): a reply packed into MessageSizes batches;
//    the first batch travels reliably and the rest replay its acked route.
//  * mark() / settle(): a merged batch's cost triple and messages_saved.
//
// On a fully-alive network every leg is exactly one route plus one
// transmit_path, so fault-free ledgers are the bare-route ledgers.
#pragma once

#include <cstdint>

#include "net/network.h"
#include "routing/reliable.h"
#include "routing/router.h"
#include "storage/dcs_system.h"

namespace poolnet::storage {

class Legs {
 public:
  /// `owner` receives handle_node_failure() for every detected death and
  /// `stats` (its fault counters) the retries and failed legs.
  Legs(net::Network& net, const routing::Router& router, std::size_t dims,
       DcsSystem& owner, FaultStats& stats)
      : net_(net), router_(router), dims_(dims), owner_(owner), stats_(stats) {}

  /// One reliable leg. The outcome is scratch: valid until the next leg.
  const routing::LegOutcome& send(net::NodeId from, net::NodeId to,
                                  net::MessageKind kind, std::uint64_t bits);

  /// Sends toward `resolve()`; when that leg fails and `resolve()` then
  /// names another node, retries once toward it. Returns the node that
  /// received the message, or kNoNode (also when nothing resolves).
  template <typename Resolve>
  net::NodeId send_resolved(net::NodeId from, Resolve&& resolve,
                            net::MessageKind kind, std::uint64_t bits) {
    const net::NodeId to = resolve();
    if (to == net::kNoNode) return net::kNoNode;
    if (send(from, to, kind, bits).delivered) return to;
    const net::NodeId re = resolve();
    if (re == to || re == net::kNoNode) return net::kNoNode;
    return send(from, re, kind, bits).delivered ? re : net::kNoNode;
  }

  /// Replies `events` events (at least one) from `from` to `to` in
  /// MessageSizes::reply_batches packed messages. True when they arrived.
  bool reply(net::NodeId from, net::NodeId to, std::uint64_t events);

  /// Replies one fixed-size partial aggregate. True when it arrived.
  bool reply_partial(net::NodeId from, net::NodeId to);

  /// Route of the last leg (the acked one after a delivered send).
  const routing::RouteResult& route() const { return out_.route; }

  /// The ledger, fault counters and leg overhead when a merged batch
  /// began.
  struct Mark {
    net::TrafficTally traffic;
    FaultStats faults;
    std::uint64_t overhead = 0;
  };
  Mark mark() const { return {net_.traffic(), stats_, overhead_}; }

  /// Closes a merged batch begun at `mark`: charges `batch` the ledger
  /// delta and sets messages_saved to what issuing each member alone
  /// would have charged minus that charge. `serial` prices every leg the
  /// walk took from its acked route's hop count, once per member it
  /// carried; the legs' overhead since `mark` (failed attempts, probes,
  /// failover repairs) is added once, as the first serial member to meet
  /// a dead node pays it too. On loss-free links with no retry, failed
  /// leg or failover during the batch the difference is exact and
  /// asserted non-negative; otherwise it is clamped at 0.
  void settle(const Mark& mark, std::uint64_t serial,
              BatchQueryReceipt& batch) const;

 private:
  bool packed(net::NodeId from, net::NodeId to, std::uint64_t batches,
              std::uint64_t bits);

  net::Network& net_;
  const routing::Router& router_;
  std::size_t dims_;
  DcsSystem& owner_;
  FaultStats& stats_;
  /// Reused by every leg so a warm system sends without heap traffic.
  routing::LegOutcome out_;
  /// Messages legs charged beyond their acked routes (see settle).
  std::uint64_t overhead_ = 0;
};

}  // namespace poolnet::storage
