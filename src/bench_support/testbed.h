// A fully deployed experimental testbed (§5.1 of the paper).
//
// One Testbed = one random sensor deployment (optionally over lossy
// links), the data-centric storage systems the caller names bound to it,
// and a brute-force oracle for correctness checking. Every system gets its
// own stack — Network over the shared node positions, Gpsr, optional
// RouteCache and hop-trace ring — so per-node accounting (stored events,
// energy, tx/rx) never mixes across systems; in particular Pool's
// workload-sharing threshold must not see DIM's storage load.
#pragma once

#include <array>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/object_pool.h"
#include "core/pool_system.h"
#include "dim/dim_system.h"
#include "net/deployment.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/workload.h"
#include "routing/gpsr.h"
#include "routing/route_cache.h"
#include "storage/brute_force_store.h"
#include "storage/store_config.h"

namespace poolnet::benchsup {

/// The systems a Testbed deploys. Central is the paper's strawman
/// baseline: every event shipped to a base station (node 0), queries
/// answered there, through the flat or paged store TestbedConfig::store
/// selects.
enum class SystemKind { Pool, Dim, Ght, Central };

inline constexpr std::array<SystemKind, 4> kAllSystems = {
    SystemKind::Pool, SystemKind::Dim, SystemKind::Ght, SystemKind::Central};

/// "pool", "dim", "ght" or "central" — also each system's metrics prefix.
const char* to_string(SystemKind kind);

/// Parses one system name. Returns false and sets `error` on an unknown
/// name; `out` is untouched then.
bool parse_system_kind(const std::string& name, SystemKind* out,
                       std::string* error);

struct TestbedConfig {
  std::size_t nodes = 900;        ///< network size (paper: 300..2700)
  double radio_range = 40.0;      ///< meters (paper: 40)
  double avg_neighbors = 20.0;    ///< density target (paper: ~20)
  std::size_t dims = 3;           ///< event dimensionality (paper: 3)
  std::size_t events_per_node = 3;  ///< workload volume (paper: 3)
  core::PoolConfig pool;            ///< α = 5 m, l = 10 by default
  query::WorkloadConfig workload;   ///< uniform values by default
  std::uint64_t seed = 1;           ///< master seed (deployment + workload)
  net::MessageSizes sizes;          ///< packet size model
  net::LinkLossModel loss;          ///< per-hop loss + ARQ (default ideal)

  /// The systems to deploy (duplicates ignored). Only these stacks are
  /// built; the oracle is always there.
  std::vector<SystemKind> systems{SystemKind::Pool, SystemKind::Dim};

  /// Central's local store engine: the flat vector or the paged store.
  storage::StoreConfig store;

  /// Route memoization over every stack's Gpsr. `location_quantum` is
  /// overridden with the Pool α at construction so cell-center routes
  /// share hash buckets.
  routing::RouteCacheConfig route_cache;

  /// Hop-trace ring size attached to every network; 0 (default) leaves
  /// tracing disabled at its one-branch-per-hop cost.
  std::size_t trace_capacity = 0;

  /// Draw route-cache path buffers from a per-testbed free-list pool
  /// instead of the heap. Pure allocation-strategy switch: receipts,
  /// ledgers, and cache stats are byte-identical either way (the A/B knob
  /// tests/test_pool_alloc.cpp exercises).
  bool pooled_buffers = true;
};

class Testbed {
 public:
  /// Deploys until the unit-disk graph is connected (re-drawing positions
  /// with derived seeds; disconnected draws are rare at 20 neighbors),
  /// then builds one stack per configured system.
  explicit Testbed(TestbedConfig config);

  const TestbedConfig& config() const { return config_; }

  /// The node positions every stack's network is built over.
  std::span<const Point> positions() const { return positions_; }

  /// The deployed systems, in SystemKind order.
  const std::vector<SystemKind>& systems() const { return deployed_; }

  // One stack's parts. Each throws ConfigError when `kind` is not
  // deployed.
  storage::DcsSystem& system(SystemKind kind) { return *stack(kind).system; }
  net::Network& network(SystemKind kind) { return *stack(kind).net; }
  const routing::Gpsr& gpsr(SystemKind kind) const {
    return *stack(kind).gpsr;
  }
  /// The router the system actually sees: the cache when enabled,
  /// otherwise the raw Gpsr.
  const routing::Router& router(SystemKind kind) const;
  /// Null when the cache is disabled.
  const routing::RouteCache* route_cache(SystemKind kind) const {
    return stack(kind).cache.get();
  }
  /// Null unless config.trace_capacity > 0.
  const obs::RingTraceSink* trace(SystemKind kind) const {
    return stack(kind).trace.get();
  }
  /// Insertion traffic charged to the system by insert_workload().
  net::TrafficTally insert_traffic(SystemKind kind) const {
    return stack(kind).insert_traffic;
  }

  /// Typed views for Pool-only and DIM-only APIs.
  core::PoolSystem& pool() {
    return static_cast<core::PoolSystem&>(system(SystemKind::Pool));
  }
  dim::DimSystem& dim() {
    return static_cast<dim::DimSystem&>(system(SystemKind::Dim));
  }
  storage::BruteForceStore& oracle() { return *oracle_; }

  /// Generates events_per_node events at every node and inserts each into
  /// every deployed system and the oracle. Returns the number of events
  /// inserted.
  std::size_t insert_workload();

  /// Uniformly random node id (query sinks).
  net::NodeId random_node(Rng& rng) const;

  /// The deployment-wide metrics registry: each route cache registers
  /// under "<system>.route_cache", and callers (query engines, benches)
  /// should register their own instruments here so one scrape sees the
  /// whole testbed.
  obs::MetricsRegistry& metrics() { return *metrics_; }
  const obs::MetricsRegistry& metrics() const { return *metrics_; }

  /// Free-list pool backing every route cache's stored path buffers
  /// (disabled pass-through when config.pooled_buffers is false).
  const common::BufferPool<net::NodeId>& path_pool() const {
    return *path_pool_;
  }

 private:
  /// Destroyed bottom-up: the system before the router it holds, the
  /// network before the trace ring it writes to.
  struct Stack {
    std::unique_ptr<obs::RingTraceSink> trace;
    std::unique_ptr<net::Network> net;
    std::unique_ptr<routing::Gpsr> gpsr;
    std::unique_ptr<routing::RouteCache> cache;
    std::unique_ptr<storage::DcsSystem> system;
    net::TrafficTally insert_traffic;
  };

  static std::size_t slot(SystemKind kind) {
    return static_cast<std::size_t>(kind);
  }
  const Stack& stack(SystemKind kind) const;
  Stack& stack(SystemKind kind) {
    return const_cast<Stack&>(std::as_const(*this).stack(kind));
  }

  /// Builds `kind`'s stack over `net`.
  void deploy(SystemKind kind, std::unique_ptr<net::Network> net);

  /// Heap-held (registry owns a mutex) so Testbed stays movable; declared
  /// before its users so the caches can register in the ctor.
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  TestbedConfig config_;
  /// Heap-held (keeps Testbed movable with a stable address for the
  /// caches); declared before the stacks, whose caches release buffers
  /// into it.
  std::unique_ptr<common::BufferPool<net::NodeId>> path_pool_;
  std::vector<Point> positions_;
  std::array<std::unique_ptr<Stack>, kAllSystems.size()> stacks_;
  std::vector<SystemKind> deployed_;
  std::unique_ptr<storage::BruteForceStore> oracle_;
};

}  // namespace poolnet::benchsup
