// The in-process stacks the workloads drive: a deployment, its Network,
// Gpsr, a RouteCache and one DCS system, built the way the repository's
// Testbed (and therefore poolnetd) builds them, with the benchmark's
// timing decorators spliced in when a Tracer is given:
//
//   system decorator -> system -> probe timer -> RouteCache
//                                     -> GPSR timer -> [delay] -> Gpsr
#pragma once

#include <memory>

#include "common/object_pool.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "routing/gpsr.h"
#include "routing/route_cache.h"
#include "storage/dcs_system.h"
#include "storage/paged/paged_store.h"
#include "trace.h"

namespace perfbench {

enum class StackKind { Pool, Dim, CentralPaged };

struct StackConfig {
  StackKind kind = StackKind::Pool;
  std::size_t nodes = 2700;
  std::size_t dims = 3;
  /// Deployment (and preload) seed. Workloads keep it fixed so that
  /// --seed varies only the operation stream: where a sink happens to sit
  /// would otherwise dominate every message count.
  std::uint64_t seed = 1;
  Tracer* tracer = nullptr;       ///< null: no decorators at all
  bool delay_router = false;      ///< self-test: DelayRouter before Gpsr
  storage::PagedStoreOptions paged;  ///< CentralPaged only
};

/// Set-up time split by layer, seconds.
struct SetupTimes {
  double net_s = 0;        ///< deployment draw + Network constructor
  double planarize_s = 0;  ///< Gpsr constructor (planarization)
  double system_s = 0;     ///< DCS system constructor
  double preload_s = 0;    ///< initial inserts

  double total() const { return net_s + planarize_s + system_s + preload_s; }
};

class Stack {
 public:
  explicit Stack(const StackConfig& config);

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// The system callers should use (the decorator when traced).
  storage::DcsSystem& system() { return timed_ ? *timed_ : *system_; }
  net::Network& network() { return *network_; }
  SetupTimes& times() { return times_; }
  const StackConfig& config() const { return config_; }

  /// Inserts `per_node` events at every node exactly as
  /// benchsup::Testbed::insert_workload does (same generator seed, same
  /// order), then clears the traffic ledger. Adds to times().preload_s.
  std::size_t preload_per_node(std::size_t per_node);

  /// The deployment-wide registry every instrumented component of this
  /// stack registers in, as benchsup::Testbed wires it.
  obs::MetricsRegistry& metrics() { return *metrics_; }

  /// Forgets spans and route counts recorded so far (set-up work).
  void reset_trace();

  /// Null unless traced.
  const TimedRouter* probe_timer() const { return probe_.get(); }
  const TimedRouter* gpsr_timer() const { return gpsr_timer_.get(); }
  /// Null unless config().delay_router.
  DelayRouter* delay() { return delay_.get(); }
  /// Null unless kind == CentralPaged.
  storage::PagedStore* pager() const { return pager_; }

 private:
  StackConfig config_;
  SetupTimes times_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;  ///< before its users
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<routing::Gpsr> gpsr_;
  std::unique_ptr<DelayRouter> delay_;
  std::unique_ptr<TimedRouter> gpsr_timer_;
  std::unique_ptr<common::BufferPool<net::NodeId>> paths_;
  std::unique_ptr<routing::RouteCache> cache_;
  std::unique_ptr<TimedRouter> probe_;
  std::unique_ptr<storage::DcsSystem> system_;
  std::unique_ptr<TimedSystem> timed_;
  storage::PagedStore* pager_ = nullptr;
};

/// Layer a stack's system decorator reports under.
Layer system_layer(StackKind kind);

}  // namespace perfbench
