#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>

#include "common/assert.h"

namespace poolnet::obs {

namespace {

std::atomic<std::uint64_t> g_registry_epoch{0};

/// Small direct-mapped thread-local cache: registry -> this thread's
/// shard. Keyed by (pointer, epoch) so a reused allocation address can
/// never resurrect a dead registry's shard. Two registries that share a
/// slot evict each other; a miss then re-enters the slow path, which finds
/// the thread's existing shard by owner instead of adding one.
struct TlEntry {
  const void* reg = nullptr;
  std::uint64_t epoch = 0;
  void* shard = nullptr;
};
constexpr std::size_t kTlSlots = 8;
thread_local TlEntry tl_shards[kTlSlots];

std::size_t tl_index(const void* reg) {
  return (reinterpret_cast<std::uintptr_t>(reg) >> 4) % kTlSlots;
}

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
}

}  // namespace

// --- Snapshot --------------------------------------------------------------

std::uint64_t Snapshot::Hist::total() const {
  std::uint64_t t = overflow;
  for (const auto b : buckets) t += b;
  return t;
}

double Snapshot::Hist::quantile(double q) const {
  const std::uint64_t n = total();
  if (n == 0) return 0.0;
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen >= target)
      return bucket_width * static_cast<double>(i + 1);
  }
  return bucket_width * static_cast<double>(buckets.size());
}

Snapshot& Snapshot::operator+=(const Snapshot& other) {
  for (const auto& [k, v] : other.counters) counters[k] += v;
  for (const auto& [k, v] : other.gauges) gauges[k] += v;
  for (const auto& [k, h] : other.histograms) {
    Hist& mine = histograms[k];
    if (mine.buckets.empty()) {
      mine = h;
      continue;
    }
    mine.buckets.resize(std::max(mine.buckets.size(), h.buckets.size()), 0);
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      mine.buckets[i] += h.buckets[i];
    mine.overflow += h.overflow;
  }
  for (const auto& [k, s] : other.series) {
    auto& mine = series[k];
    mine.resize(std::max(mine.size(), s.size()), 0.0);
    for (std::size_t i = 0; i < s.size(); ++i) mine[i] += s[i];
  }
  return *this;
}

std::string Snapshot::to_json() const {
  std::string out = "{\n";
  const auto key = [&](const std::string& name) {
    out += "    \"";
    json_escape_into(out, name);
    out += "\": ";
  };

  out += "  \"counters\": {\n";
  for (auto it = counters.begin(); it != counters.end(); ++it) {
    key(it->first);
    out += std::to_string(it->second);
    out += std::next(it) == counters.end() ? "\n" : ",\n";
  }
  out += "  },\n  \"gauges\": {\n";
  for (auto it = gauges.begin(); it != gauges.end(); ++it) {
    key(it->first);
    out += fmt_double(it->second);
    out += std::next(it) == gauges.end() ? "\n" : ",\n";
  }
  out += "  },\n  \"histograms\": {\n";
  for (auto it = histograms.begin(); it != histograms.end(); ++it) {
    key(it->first);
    out += "{\"bucket_width\": " + fmt_double(it->second.bucket_width) +
           ", \"overflow\": " + std::to_string(it->second.overflow) +
           ", \"buckets\": [";
    for (std::size_t i = 0; i < it->second.buckets.size(); ++i) {
      if (i) out += ", ";
      out += std::to_string(it->second.buckets[i]);
    }
    out += "]}";
    out += std::next(it) == histograms.end() ? "\n" : ",\n";
  }
  out += "  },\n  \"series\": {\n";
  for (auto it = series.begin(); it != series.end(); ++it) {
    key(it->first);
    out += "[";
    for (std::size_t i = 0; i < it->second.size(); ++i) {
      if (i) out += ", ";
      out += fmt_double(it->second[i]);
    }
    out += "]";
    out += std::next(it) == series.end() ? "\n" : ",\n";
  }
  out += "  }\n}\n";
  return out;
}

std::string Snapshot::to_csv() const {
  std::string out = "section,name,index,value\n";
  for (const auto& [k, v] : counters)
    out += "counter," + k + ",," + std::to_string(v) + "\n";
  for (const auto& [k, v] : gauges)
    out += "gauge," + k + ",," + fmt_double(v) + "\n";
  for (const auto& [k, h] : histograms) {
    for (std::size_t i = 0; i < h.buckets.size(); ++i)
      out += "histogram," + k + "," + std::to_string(i) + "," +
             std::to_string(h.buckets[i]) + "\n";
    out += "histogram," + k + ",overflow," + std::to_string(h.overflow) +
           "\n";
  }
  for (const auto& [k, s] : series)
    for (std::size_t i = 0; i < s.size(); ++i)
      out += "series," + k + "," + std::to_string(i) + "," +
             fmt_double(s[i]) + "\n";
  return out;
}

// --- MetricsRegistry -------------------------------------------------------

MetricsRegistry::MetricsRegistry()
    : epoch_(g_registry_epoch.fetch_add(1) + 1) {}

MetricsRegistry::~MetricsRegistry() = default;

MetricsRegistry::Counter MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    POOLNET_ASSERT_MSG(defs_[it->second].kind == Kind::Counter,
                       "metric re-registered with a different kind");
    return Counter(this, defs_[it->second].first_slot);
  }
  Def def;
  def.name = name;
  def.kind = Kind::Counter;
  def.first_slot = slots_;
  def.slot_count = 1;
  slots_ += 1;
  by_name_[name] = static_cast<std::uint32_t>(defs_.size());
  defs_.push_back(std::move(def));
  return Counter(this, defs_.back().first_slot);
}

MetricsRegistry::Histogram MetricsRegistry::histogram(
    const std::string& name, double bucket_width, std::size_t bucket_count) {
  POOLNET_ASSERT_MSG(bucket_width > 0.0 && bucket_count > 0,
                     "histogram needs positive width and bucket count");
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    POOLNET_ASSERT_MSG(defs_[it->second].kind == Kind::Histogram,
                       "metric re-registered with a different kind");
    return Histogram(this, it->second);
  }
  Def def;
  def.name = name;
  def.kind = Kind::Histogram;
  def.first_slot = slots_;
  def.slot_count = static_cast<std::uint32_t>(bucket_count + 1);  // +overflow
  def.bucket_width = bucket_width;
  slots_ += def.slot_count;
  const auto idx = static_cast<std::uint32_t>(defs_.size());
  by_name_[name] = idx;
  defs_.push_back(std::move(def));
  return Histogram(this, idx);
}

void MetricsRegistry::set_gauge(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  gauges_[name] = value;
}

MetricsRegistry::Shard* MetricsRegistry::this_thread_shard() {
  TlEntry& e = tl_shards[tl_index(this)];
  if (e.reg == this && e.epoch == epoch_) return static_cast<Shard*>(e.shard);
  const std::thread::id me = std::this_thread::get_id();
  Shard* shard = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : shards_)
      if (s->owner == me) shard = s.get();
    if (shard == nullptr) {
      shards_.push_back(std::make_unique<Shard>());
      shard = shards_.back().get();
      shard->owner = me;
      shard->cells.resize(slots_, 0);
    }
  }
  e = TlEntry{this, epoch_, shard};
  return shard;
}

std::uint64_t& MetricsRegistry::cell(std::uint32_t slot) {
  Shard* shard = this_thread_shard();
  if (slot >= shard->cells.size()) {
    // Metrics registered after this shard was created; size to the
    // registry's current slot space (owner-thread-only mutation).
    std::lock_guard<std::mutex> lock(mu_);
    shard->cells.resize(slots_, 0);
  }
  return shard->cells[slot];
}

void MetricsRegistry::Counter::add(std::uint64_t n) const {
  if (reg_ == nullptr) return;
  reg_->cell(slot_) += n;
}

std::uint64_t MetricsRegistry::Counter::value() const {
  if (reg_ == nullptr) return 0;
  std::lock_guard<std::mutex> lock(reg_->mu_);
  std::uint64_t sum = 0;
  for (const auto& shard : reg_->shards_)
    if (slot_ < shard->cells.size()) sum += shard->cells[slot_];
  return sum;
}

void MetricsRegistry::Histogram::add(double x) const {
  if (reg_ == nullptr) return;
  // defs_ is an append-only deque: elements never move and a def is
  // immutable once its handle is published, so no lock is needed here.
  const Def& def = reg_->defs_[def_];
  const double width = def.bucket_width;
  const std::uint32_t first = def.first_slot;
  const std::size_t buckets = def.slot_count - 1;
  std::size_t idx = buckets;  // overflow cell
  if (x >= 0.0) {
    const double b = x / width;
    if (b < static_cast<double>(buckets)) idx = static_cast<std::size_t>(b);
  } else {
    idx = 0;  // clamp negatives into the first bucket
  }
  reg_->cell(first + static_cast<std::uint32_t>(idx)) += 1;
}

Snapshot MetricsRegistry::scrape() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snap;
  std::vector<std::uint64_t> merged(slots_, 0);
  for (const auto& shard : shards_)
    for (std::size_t i = 0; i < shard->cells.size(); ++i)
      merged[i] += shard->cells[i];
  for (const Def& def : defs_) {
    if (def.kind == Kind::Counter) {
      snap.counters[def.name] = merged[def.first_slot];
    } else {
      Snapshot::Hist h;
      h.bucket_width = def.bucket_width;
      h.buckets.assign(merged.begin() + def.first_slot,
                       merged.begin() + def.first_slot + def.slot_count - 1);
      h.overflow = merged[def.first_slot + def.slot_count - 1];
      snap.histograms[def.name] = std::move(h);
    }
  }
  snap.gauges = gauges_;
  return snap;
}

std::size_t MetricsRegistry::shard_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shards_.size();
}

std::size_t MetricsRegistry::metric_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return defs_.size();
}

}  // namespace poolnet::obs
