#include "server/backend.h"

#include "bench_support/replay.h"

namespace poolnet::server {

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
  if (name == "pool") {
    *out = SystemKind::Pool;
  } else if (name == "dim") {
    *out = SystemKind::Dim;
  } else if (name == "ght") {
    *out = SystemKind::Ght;
  } else if (name == "central") {
    *out = SystemKind::Central;
  } else {
    *error =
        "unknown system '" + name + "' (expected pool, dim, ght or central)";
    return false;
  }
  return true;
}

Backend::Backend(BackendConfig config) : config_(config) {
  benchsup::TestbedConfig tb;
  tb.nodes = config_.nodes;
  tb.dims = config_.dims;
  tb.events_per_node = config_.events_per_node;
  tb.seed = config_.seed;
  testbed_ = std::make_unique<benchsup::Testbed>(tb);
  preloaded_ = testbed_->insert_workload();

  switch (config_.system) {
    case SystemKind::Pool:
      system_ = &testbed_->pool();
      break;
    case SystemKind::Dim:
      system_ = &testbed_->dim();
      break;
    case SystemKind::Ght:
    case SystemKind::Central: {
      const auto pts = testbed_->pool_network().positions();
      extra_net_ = std::make_unique<net::Network>(
          std::vector<Point>(pts.begin(), pts.end()),
          testbed_->pool_network().field(), tb.radio_range);
      extra_gpsr_ = std::make_unique<routing::Gpsr>(*extra_net_);
      const routing::Router* router = extra_gpsr_.get();
      if (tb.route_cache.enabled) {
        extra_cache_ = std::make_unique<routing::RouteCache>(
            *extra_gpsr_, tb.route_cache, &testbed_->metrics(),
            std::string(to_string(config_.system)) + ".route_cache");
        router = extra_cache_.get();
      }
      if (config_.system == SystemKind::Ght) {
        ght_ = std::make_unique<ght::GhtSystem>(*extra_net_, *router,
                                                config_.dims);
        system_ = ght_.get();
      } else {
        // Base station = node 0 — the sink(), so client operations and
        // answers share the same endpoint.
        central_ = storage::make_central_store(
            config_.dims, config_.store, extra_net_.get(), router,
            net::NodeId{0}, &testbed_->metrics());
        system_ = central_.get();
      }
      benchsup::replay_oracle(testbed_->oracle(), *system_);
      break;
    }
  }

  engine_ = std::make_unique<engine::QueryEngine>(
      *system_, config_.engine, &testbed_->metrics(),
      std::string(to_string(config_.system)) + ".engine");
}

}  // namespace poolnet::server
