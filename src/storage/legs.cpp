#include "storage/legs.h"

namespace poolnet::storage {

const routing::LegOutcome& Legs::send(net::NodeId from, net::NodeId to,
                                      net::MessageKind kind,
                                      std::uint64_t bits) {
  const std::uint64_t before = net_.traffic().total;
  routing::send_reliable_into(net_, router_, from, to, kind, bits, {}, out_);
  stats_.retries += out_.retries;
  if (!out_.delivered) ++stats_.failed_legs;
  // Failover never sends through Legs (repair traffic uses send_reliable
  // directly), so iterating the scratch here is safe.
  for (const net::NodeId d : out_.dead_found) owner_.handle_node_failure(d);
  overhead_ += net_.traffic().total - before -
               (out_.delivered ? out_.route.hops() : 0);
  return out_;
}

bool Legs::reply(net::NodeId from, net::NodeId to, std::uint64_t events) {
  const auto& sizes = net_.sizes();
  return packed(from, to, sizes.reply_batches(events),
                sizes.reply_bits(dims_, sizes.reply_payload(events)));
}

bool Legs::reply_partial(net::NodeId from, net::NodeId to) {
  return packed(from, to, 1, net_.sizes().aggregate_bits());
}

bool Legs::packed(net::NodeId from, net::NodeId to, std::uint64_t batches,
                  std::uint64_t bits) {
  if (!send(from, to, net::MessageKind::Reply, bits).delivered) return false;
  for (std::uint64_t b = 1; b < batches; ++b)
    net_.transmit_path(out_.route.path, net::MessageKind::Reply, bits);
  return true;
}

void Legs::settle(const Mark& mark, std::uint64_t serial,
                  BatchQueryReceipt& batch) const {
  batch.cost() = cost_of(net_.traffic() - mark.traffic);
  const std::uint64_t charged = batch.messages;
  serial += overhead_ - mark.overhead;
  if (net_.loss_model().loss_probability == 0.0 && net_.extra_loss() == 0.0 &&
      stats_ == mark.faults)
    POOLNET_ASSERT(serial >= charged);
  batch.messages_saved = serial >= charged ? serial - charged : 0;
}

}  // namespace poolnet::storage
