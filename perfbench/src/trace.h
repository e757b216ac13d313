// Benchmark-side tracing: spans recorded around calls into each layer's
// public functions, plus the decorators that place those spans.
//
// Nothing here reaches inside the program. A Router decorator outside the
// RouteCache sees every route call (cache probes plus misses); a second
// one between the RouteCache and Gpsr sees only misses, so the two
// separate probe time from GPSR compute time. A DcsSystem decorator sits
// where the system would be, so every insert/query/batch/expiry the engine
// or the harness issues opens one span. A layer's self time is its span
// durations minus the parts covered by child spans; it is booked as each
// span closes, and the first spans of a run are kept for a CSV dump. A
// disabled tracer opens no spans, so one stack can alternate traced and
// untraced operations.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "routing/router.h"
#include "storage/dcs_system.h"

namespace perfbench {

using namespace poolnet;

enum class Layer : std::uint8_t {
  Op,            ///< one benchmark operation (root span)
  ServerParse,   ///< server::parse_query
  ServerEncode,  ///< server::encode_events
  ServerDecode,  ///< server::decode_events
  Engine,        ///< QueryEngine submit/take/flush/insert
  Core,          ///< PoolSystem
  Dim,           ///< DimSystem
  Storage,       ///< central BruteForceStore / PagedStore
  RoutingProbe,  ///< every route call, seen outside the RouteCache
  RoutingGpsr,   ///< route calls that missed the cache
  Check,         ///< the benchmark's own input generation and checking
  kCount
};

const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  Layer layer;
  std::uint32_t parent;
  std::uint64_t op;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);
/// Operation groups the self-time books are kept for (operation kinds).
constexpr std::size_t kGroups = 4;

/// Single-threaded span recorder. Self times are booked as spans close,
/// per operation group and layer; the first kMaxLogged spans are also kept
/// in memory for write().
class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xffffffffu;
  static constexpr std::size_t kMaxLogged = std::size_t{1} << 18;

  void open(Layer layer) {
    const std::int64_t now = now_ns();
    std::uint32_t logged = kNoParent;
    if (log_.size() < kMaxLogged) {
      logged = static_cast<std::uint32_t>(log_.size());
      log_.push_back(Span{layer,
                          open_.empty() ? kNoParent : open_.back().logged,
                          op_, now, 0});
    }
    open_.push_back(Open{layer, logged, now});
  }

  void close() {
    const Open o = open_.back();
    open_.pop_back();
    const std::int64_t end = now_ns();
    const std::int64_t d = end - o.start_ns;
    const auto l = static_cast<std::size_t>(o.layer);
    self_ns_[group_][l] += d;
    ++spans_[group_][l];
    if (!open_.empty())
      self_ns_[group_][static_cast<std::size_t>(open_.back().layer)] -= d;
    if (o.logged != kNoParent) log_[o.logged].end_ns = end;
  }

  /// Spans open only while enabled; switch between operations.
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Starts a new operation whose spans book into `group` (< kGroups).
  void next_op(std::size_t group) {
    ++op_;
    group_ = group;
  }

  /// Forgets every span and booked time (e.g. those of set-up work) and
  /// restarts operation ids at 1.
  void clear();

  /// Self seconds of `layer` within operations of `group`: its span
  /// durations minus the parts covered by child spans.
  double self_seconds(std::size_t group, Layer layer) const {
    return static_cast<double>(
               self_ns_[group][static_cast<std::size_t>(layer)]) *
           1e-9;
  }
  /// Spans of `layer` closed within operations of `group`.
  std::uint64_t span_count(std::size_t group, Layer layer) const {
    return spans_[group][static_cast<std::size_t>(layer)];
  }
  /// Writes the kept spans as CSV (layer,op,parent,start_ns,end_ns).
  bool write(const std::string& path) const;

 private:
  struct Open {
    Layer layer;
    std::uint32_t logged;  ///< index in log_, or kNoParent
    std::int64_t start_ns;
  };

  std::vector<Span> log_;
  std::vector<Open> open_;
  std::array<std::array<std::int64_t, kLayers>, kGroups> self_ns_{};
  std::array<std::array<std::uint64_t, kLayers>, kGroups> spans_{};
  std::uint64_t op_ = 0;
  std::size_t group_ = 0;
  bool enabled_ = true;
};

/// RAII span; a null or disabled tracer makes it free.
class Scope {
 public:
  Scope(Tracer* tracer, Layer layer)
      : tracer_(tracer && tracer->enabled() ? tracer : nullptr) {
    if (tracer_) tracer_->open(layer);
  }
  ~Scope() {
    if (tracer_) tracer_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

/// Route counters a TimedRouter accumulates.
struct RouteCounts {
  std::uint64_t calls = 0;
  std::uint64_t hops = 0;
  std::uint64_t perimeter_hops = 0;
};

/// Router decorator: one span per call, plus call/hop counters.
class TimedRouter final : public routing::Router {
 public:
  TimedRouter(const routing::Router& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  routing::RouteResult route_to_node(net::NodeId src,
                                     net::NodeId dst) const override;
  routing::RouteResult route_to_location(net::NodeId src,
                                         Point dest) const override;
  void route_to_node_into(net::NodeId src, net::NodeId dst,
                          routing::RouteResult& out) const override;
  void route_to_location_into(net::NodeId src, Point dest,
                              routing::RouteResult& out) const override;
  void note_dead(net::NodeId dead) const override { inner_.note_dead(dead); }

  const RouteCounts& counts() const { return counts_; }
  void reset() { counts_ = RouteCounts{}; }

 private:
  void count(const routing::RouteResult& r) const;

  const routing::Router& inner_;
  Tracer& tracer_;
  Layer layer_;
  mutable RouteCounts counts_;
};

/// Router decorator that busy-waits a set time per call (none at first)
/// before forwarding: the injected slowdown of the attribution self-test.
class DelayRouter final : public routing::Router {
 public:
  explicit DelayRouter(const routing::Router& inner) : inner_(inner) {}

  void set_delay_ns(std::int64_t delay_ns) { delay_ns_ = delay_ns; }

  routing::RouteResult route_to_node(net::NodeId src,
                                     net::NodeId dst) const override;
  routing::RouteResult route_to_location(net::NodeId src,
                                         Point dest) const override;
  void route_to_node_into(net::NodeId src, net::NodeId dst,
                          routing::RouteResult& out) const override;
  void route_to_location_into(net::NodeId src, Point dest,
                              routing::RouteResult& out) const override;
  void note_dead(net::NodeId dead) const override { inner_.note_dead(dead); }

 private:
  void spin() const;

  const routing::Router& inner_;
  std::int64_t delay_ns_ = 0;
};

/// DcsSystem decorator: forwards every call to `inner` inside a span of
/// `layer` (Core, Dim or Storage).
class TimedSystem final : public storage::DcsSystem {
 public:
  TimedSystem(storage::DcsSystem& inner, Tracer& tracer, Layer layer)
      : inner_(inner), tracer_(tracer), layer_(layer) {}

  std::string name() const override { return inner_.name(); }
  std::string describe() const override { return inner_.describe(); }
  std::size_t dims() const override { return inner_.dims(); }
  storage::InsertReceipt insert(net::NodeId source,
                                const storage::Event& event) override;
  storage::QueryReceipt query(net::NodeId sink,
                              const storage::RangeQuery& query) override;
  storage::QueryReceipt skyline(net::NodeId sink,
                                const storage::SkylineQuery& query) override;
  storage::QueryReceipt k_nearest(
      net::NodeId sink, const storage::KNearestQuery& query) override;
  storage::BatchQueryReceipt query_batch(
      net::NodeId sink,
      const std::vector<storage::RangeQuery>& queries) override;
  storage::AggregateReceipt aggregate(net::NodeId sink,
                                      const storage::RangeQuery& query,
                                      storage::AggregateKind kind,
                                      std::size_t value_dim) override;
  std::size_t stored_count() const override { return inner_.stored_count(); }
  std::size_t expire_before(double cutoff) override;
  const storage::column::ScanStats* scan_stats() const override {
    return inner_.scan_stats();
  }

 private:
  storage::DcsSystem& inner_;
  Tracer& tracer_;
  Layer layer_;
};

}  // namespace perfbench
