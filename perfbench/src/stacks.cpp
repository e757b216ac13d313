#include "stacks.h"

#include <stdexcept>

#include "core/pool_system.h"
#include "dim/dim_system.h"
#include "net/deployment.h"
#include "query/workload.h"
#include "support.h"

namespace perfbench {

namespace {

// benchsup::Testbed's defaults (paper §5.1): 40 m radio, ~20 neighbours.
constexpr double kRadio = 40.0;
constexpr double kNeighbors = 20.0;

}  // namespace

Layer system_layer(StackKind kind) {
  switch (kind) {
    case StackKind::Pool: return Layer::Core;
    case StackKind::Dim: return Layer::Dim;
    case StackKind::CentralPaged: return Layer::Storage;
  }
  return Layer::Storage;
}

Stack::Stack(const StackConfig& config)
    : config_(config), metrics_(std::make_unique<obs::MetricsRegistry>()) {
  double t = now_s();
  // The deployment draw of benchsup::Testbed: re-draw with split seeds
  // until the unit-disk graph is connected.
  const double side =
      net::field_side_for_density(config.nodes, kRadio, kNeighbors);
  const Rect field{0.0, 0.0, side, side};
  Rng master(config.seed);
  for (int attempt = 0; attempt < 64 && !network_; ++attempt) {
    Rng deploy = master.split();
    auto candidate = std::make_unique<net::Network>(
        net::deploy_uniform(config.nodes, field, deploy), field, kRadio,
        net::MessageSizes{}, sim::EnergyModel{}, net::LinkLossModel{},
        config.seed * 3 + 1);
    if (candidate->is_connected()) network_ = std::move(candidate);
  }
  if (!network_) throw std::runtime_error("no connected deployment drawn");
  double t1 = now_s();
  times_.net_s = t1 - t;

  gpsr_ = std::make_unique<routing::Gpsr>(*network_);
  t = now_s();
  times_.planarize_s = t - t1;

  const routing::Router* below_cache = gpsr_.get();
  if (config.delay_router) {
    delay_ = std::make_unique<DelayRouter>(*below_cache);
    below_cache = delay_.get();
  }
  if (config.tracer) {
    gpsr_timer_ = std::make_unique<TimedRouter>(*below_cache, *config.tracer,
                                                Layer::RoutingGpsr);
    below_cache = gpsr_timer_.get();
  }
  core::PoolConfig pool_config;
  routing::RouteCacheConfig cache_config;
  cache_config.location_quantum = pool_config.cell_size;  // as Testbed does
  paths_ = std::make_unique<common::BufferPool<net::NodeId>>(true);
  cache_ = std::make_unique<routing::RouteCache>(
      *below_cache, cache_config, metrics_.get(), "route_cache", paths_.get());
  const routing::Router* router = cache_.get();
  if (config.tracer) {
    probe_ = std::make_unique<TimedRouter>(*router, *config.tracer,
                                           Layer::RoutingProbe);
    router = probe_.get();
  }

  t1 = now_s();
  switch (config.kind) {
    case StackKind::Pool:
      system_ = std::make_unique<core::PoolSystem>(*network_, *router,
                                                   config.dims, pool_config);
      break;
    case StackKind::Dim:
      system_ = std::make_unique<dim::DimSystem>(*network_, *router,
                                                 config.dims);
      break;
    case StackKind::CentralPaged: {
      // The base station sits mid-field, as a deployment would place it.
      const net::NodeId base =
          network_->nearest_node(field.center());
      auto paged = std::make_unique<storage::PagedStore>(
          config.dims, config.paged, *network_, *router, base,
          metrics_.get());
      pager_ = paged.get();
      system_ = std::move(paged);
      break;
    }
  }
  if (config.tracer)
    timed_ = std::make_unique<TimedSystem>(*system_, *config.tracer,
                                           system_layer(config.kind));
  times_.system_s = now_s() - t1;
}

std::size_t Stack::preload_per_node(std::size_t per_node) {
  const double t = now_s();
  query::WorkloadConfig wc;
  wc.dims = config_.dims;
  Rng seed_stream(config_.seed ^ 0x9e3779b97f4a7c15ULL);
  query::EventGenerator gen(wc, seed_stream());
  std::size_t inserted = 0;
  for (net::NodeId n = 0; n < network_->size(); ++n) {
    for (std::size_t i = 0; i < per_node; ++i) {
      system_->insert(n, gen.next(n));
      ++inserted;
    }
  }
  network_->reset_traffic();
  reset_trace();
  times_.preload_s += now_s() - t;
  return inserted;
}

void Stack::reset_trace() {
  if (!config_.tracer) return;
  config_.tracer->clear();
  probe_->reset();
  gpsr_timer_->reset();
}

}  // namespace perfbench
