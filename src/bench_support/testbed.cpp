#include "bench_support/testbed.h"

#include <algorithm>

#include "common/error.h"
#include "common/logging.h"
#include "ght/ght_system.h"

namespace poolnet::benchsup {

const char* to_string(SystemKind kind) {
  switch (kind) {
    case SystemKind::Pool: return "pool";
    case SystemKind::Dim: return "dim";
    case SystemKind::Ght: return "ght";
    case SystemKind::Central: return "central";
  }
  return "?";
}

bool parse_system_kind(const std::string& name, SystemKind* out,
                       std::string* error) {
  for (const SystemKind kind : kAllSystems) {
    if (name == to_string(kind)) {
      *out = kind;
      return true;
    }
  }
  *error =
      "unknown system '" + name + "' (expected pool, dim, ght or central)";
  return false;
}

namespace {

/// Each stack's link-loss stream. Pool's and DIM's seeds are the ones
/// every earlier deployment used; GHT and central continue the sequence.
std::uint64_t loss_seed(std::uint64_t seed, SystemKind kind) {
  return seed * 3 + 1 + static_cast<std::uint64_t>(kind);
}

}  // namespace

Testbed::Testbed(TestbedConfig config)
    : metrics_(std::make_unique<obs::MetricsRegistry>()),
      config_(config),
      path_pool_(std::make_unique<common::BufferPool<net::NodeId>>(
          config.pooled_buffers)) {
  const double side = net::field_side_for_density(
      config.nodes, config.radio_range, config.avg_neighbors);
  const Rect field{0.0, 0.0, side, side};

  // Re-draw until the unit-disk graph is connected; every retry derives a
  // fresh deployment stream from the master seed, so a Testbed is still a
  // pure function of its config. The accepted draw's network becomes
  // Pool's when Pool is deployed.
  Rng master(config.seed);
  std::unique_ptr<net::Network> first;
  constexpr int kMaxDraws = 64;
  for (int attempt = 0; attempt < kMaxDraws; ++attempt) {
    Rng deploy = master.split();
    positions_ = net::deploy_uniform(config.nodes, field, deploy);
    auto candidate = std::make_unique<net::Network>(
        positions_, field, config.radio_range, config.sizes,
        sim::EnergyModel{}, config.loss,
        loss_seed(config.seed, SystemKind::Pool));
    if (candidate->is_connected()) {
      first = std::move(candidate);
      break;
    }
    POOLNET_DEBUG("Testbed: disconnected deployment, retrying (attempt "
                  << attempt << ")");
  }
  if (!first)
    throw ConfigError(
        "Testbed: could not draw a connected deployment; density too low");

  for (const SystemKind kind : kAllSystems) {
    if (std::find(config.systems.begin(), config.systems.end(), kind) ==
        config.systems.end())
      continue;
    if (kind != SystemKind::Pool) {
      first.reset();  // an unused draw is freed before the next network
      first = std::make_unique<net::Network>(
          positions_, field, config.radio_range, config.sizes,
          sim::EnergyModel{}, config.loss, loss_seed(config.seed, kind));
    }
    deploy(kind, std::move(first));
  }
  oracle_ = std::make_unique<storage::BruteForceStore>(config.dims);
}

void Testbed::deploy(SystemKind kind, std::unique_ptr<net::Network> net) {
  auto s = std::make_unique<Stack>();
  s->net = std::move(net);
  if (config_.trace_capacity > 0) {
    s->trace = std::make_unique<obs::RingTraceSink>(config_.trace_capacity);
    s->net->set_trace(s->trace.get());
  }
  s->gpsr = std::make_unique<routing::Gpsr>(*s->net);
  const routing::Router* router = s->gpsr.get();
  if (config_.route_cache.enabled) {
    routing::RouteCacheConfig cc = config_.route_cache;
    cc.location_quantum = config_.pool.cell_size;  // α-grid bucketing
    s->cache = std::make_unique<routing::RouteCache>(
        *s->gpsr, cc, metrics_.get(),
        std::string(to_string(kind)) + ".route_cache", path_pool_.get());
    router = s->cache.get();
  }
  switch (kind) {
    case SystemKind::Pool:
      s->system = std::make_unique<core::PoolSystem>(
          *s->net, *router, config_.dims, config_.pool);
      break;
    case SystemKind::Dim:
      s->system =
          std::make_unique<dim::DimSystem>(*s->net, *router, config_.dims);
      break;
    case SystemKind::Ght:
      s->system =
          std::make_unique<ght::GhtSystem>(*s->net, *router, config_.dims);
      break;
    case SystemKind::Central:
      // Base station = node 0.
      s->system = storage::make_central_store(config_.dims, config_.store,
                                              s->net.get(), router,
                                              net::NodeId{0}, metrics_.get());
      break;
  }
  stacks_[slot(kind)] = std::move(s);
  deployed_.push_back(kind);
}

const Testbed::Stack& Testbed::stack(SystemKind kind) const {
  const auto& s = stacks_[slot(kind)];
  if (!s)
    throw ConfigError(std::string("Testbed: ") + to_string(kind) +
                      " is not deployed");
  return *s;
}

const routing::Router& Testbed::router(SystemKind kind) const {
  const Stack& s = stack(kind);
  if (s.cache) return *s.cache;
  return *s.gpsr;
}

std::size_t Testbed::insert_workload() {
  query::WorkloadConfig wc = config_.workload;
  wc.dims = config_.dims;
  Rng seed_stream(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  query::EventGenerator gen(wc, seed_stream());

  for (const SystemKind kind : deployed_) network(kind).reset_traffic();

  std::size_t inserted = 0;
  for (net::NodeId n = 0; n < positions_.size(); ++n) {
    for (std::size_t i = 0; i < config_.events_per_node; ++i) {
      const storage::Event e = gen.next(n);
      for (const SystemKind kind : deployed_) system(kind).insert(n, e);
      oracle_->insert(n, e);
      ++inserted;
    }
  }
  for (const SystemKind kind : deployed_) {
    Stack& s = stack(kind);
    s.insert_traffic = s.net->traffic();
    s.net->reset_traffic();
  }
  return inserted;
}

net::NodeId Testbed::random_node(Rng& rng) const {
  return static_cast<net::NodeId>(
      rng.uniform_int(0, static_cast<std::int64_t>(positions_.size()) - 1));
}

}  // namespace poolnet::benchsup
