#include "engine/query_engine.h"

#include <cerrno>
#include <cstdlib>
#include <utility>

#include "common/error.h"

namespace poolnet::engine {

bool parse_batch_spec(const std::string& spec, std::size_t* batch_size,
                      std::string* error) {
  if (spec == "off") {
    *batch_size = 0;
    return true;
  }
  if (spec.empty() ||
      spec.find_first_not_of("0123456789") != std::string::npos) {
    *error = "bad --batch spec '" + spec + "' (want off or a positive count)";
    return false;
  }
  errno = 0;
  const unsigned long long n = std::strtoull(spec.c_str(), nullptr, 10);
  if (errno != 0 || n == 0 || n > 1000000) {
    *error = "bad --batch size '" + spec + "' (want 1..1000000)";
    return false;
  }
  *batch_size = static_cast<std::size_t>(n);
  return true;
}

QueryEngine::QueryEngine(storage::DcsSystem& system, QueryEngineConfig config,
                         obs::MetricsRegistry* metrics,
                         const std::string& prefix)
    : system_(system),
      config_(config),
      owned_metrics_(metrics == nullptr
                         ? std::make_unique<obs::MetricsRegistry>()
                         : nullptr),
      cache_(config.cache, metrics != nullptr ? metrics : owned_metrics_.get(),
             prefix + ".result_cache") {
  obs::MetricsRegistry* reg =
      metrics != nullptr ? metrics : owned_metrics_.get();
  submitted_ = reg->counter(prefix + ".submitted");
  cache_hits_ = reg->counter(prefix + ".cache_hits");
  batches_ = reg->counter(prefix + ".batches");
  serial_executions_ = reg->counter(prefix + ".serial_executions");
  skyline_queries_ = reg->counter(prefix + ".skyline_queries");
  knn_queries_ = reg->counter(prefix + ".knn_queries");
  messages_ = reg->counter(prefix + ".messages");
  messages_saved_ = reg->counter(prefix + ".messages_saved");
  serial_cell_visits_ = reg->counter(prefix + ".serial_cell_visits");
  unique_cell_visits_ = reg->counter(prefix + ".unique_cell_visits");
  retries_ = reg->counter(prefix + ".retries");
  failovers_ = reg->counter(prefix + ".failovers");
  failed_legs_ = reg->counter(prefix + ".failed_legs");
  events_lost_ = reg->counter(prefix + ".events_lost");
}

EngineStats QueryEngine::stats() const {
  EngineStats s;
  s.submitted = submitted_.value();
  s.cache_hits = cache_hits_.value();
  s.batches = batches_.value();
  s.serial_executions = serial_executions_.value();
  s.skyline_queries = skyline_queries_.value();
  s.knn_queries = knn_queries_.value();
  s.messages = messages_.value();
  s.messages_saved = messages_saved_.value();
  s.serial_cell_visits = serial_cell_visits_.value();
  s.unique_cell_visits = unique_cell_visits_.value();
  s.retries = retries_.value();
  s.failovers = failovers_.value();
  s.failed_legs = failed_legs_.value();
  s.events_lost = events_lost_.value();
  s.batch_occupancy = batch_occupancy_;
  s.dedup_ratio = dedup_ratio_;
  return s;
}

void QueryEngine::advance_clock(std::uint64_t events) {
  now_ += events;
  if (!pending_.empty() && now_ - epoch_opened_ >= config_.batch_deadline)
    flush();
}

void QueryEngine::tick(std::uint64_t events) { advance_clock(events); }

QueryEngine::Ticket QueryEngine::submit(net::NodeId sink,
                                        const storage::QueryRequest& query) {
  advance_clock(1);
  submitted_.inc();
  const Ticket ticket = next_ticket_++;

  // Only range rectangles are cacheable: invalidate_containing() knows
  // how a new event perturbs a box answer, but not a skyline or a top-k.
  if (query.cls() == storage::QueryClass::Range) {
    // A kill can change any answer (a holder's events lost or cut off),
    // so nothing cached before the latest one may serve.
    if (const std::size_t epoch = system_.liveness_epoch();
        epoch != cache_liveness_) {
      cache_.clear();
      cache_liveness_ = epoch;
    }
    if (const auto* cached = cache_.lookup(query.range(), now_)) {
      // Served entirely at the sink: zero network traffic.
      cache_hits_.inc();
      storage::QueryReceipt receipt;
      receipt.events = *cached;
      results_.emplace(ticket, std::move(receipt));
      return ticket;
    }
  }

  if (config_.batch_size <= 1) {
    execute_serial({ticket, sink, query});
    return ticket;
  }

  if (pending_.empty()) epoch_opened_ = now_;
  pending_.push_back({ticket, sink, query});
  if (pending_.size() >= config_.batch_size) flush();
  return ticket;
}

void QueryEngine::absorb_fault_stats() {
  const storage::FaultStats& f = system_.fault_stats();
  retries_.add(f.retries - fault_seen_.retries);
  failovers_.add(f.failovers - fault_seen_.failovers);
  failed_legs_.add(f.failed_legs - fault_seen_.failed_legs);
  events_lost_.add(f.events_lost - fault_seen_.events_lost);
  fault_seen_ = f;
}

void QueryEngine::execute_serial(const PendingQuery& p) {
  storage::QueryReceipt receipt = system_.execute(p.sink, p.query);
  absorb_fault_stats();
  serial_executions_.inc();
  if (p.query.cls() == storage::QueryClass::Skyline) skyline_queries_.inc();
  if (p.query.cls() == storage::QueryClass::KNearest) knn_queries_.inc();
  messages_.add(receipt.messages);
  serial_cell_visits_.add(receipt.index_nodes_visited);
  unique_cell_visits_.add(receipt.index_nodes_visited);
  batch_occupancy_.add(1.0);
  finish(p.ticket, p.query, std::move(receipt));
}

void QueryEngine::finish(Ticket ticket, const storage::QueryRequest& q,
                         storage::QueryReceipt receipt) {
  if (q.cls() == storage::QueryClass::Range)
    cache_.store(q.range(), receipt.events, now_);
  results_.emplace(ticket, std::move(receipt));
}

void QueryEngine::flush() {
  if (pending_.empty()) return;
  std::vector<PendingQuery> epoch;
  epoch.swap(pending_);

  // Group by sink in first-appearance order; queries from different sinks
  // share no dissemination tree, so each group merges independently.
  struct Group {
    net::NodeId sink;
    std::vector<PendingQuery> members;
  };
  std::vector<Group> groups;
  for (PendingQuery& p : epoch) {
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.sink == p.sink) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back({p.sink, {}});
      g = &groups.back();
    }
    g->members.push_back(std::move(p));
  }

  for (Group& g : groups) {
    // Skyline and k-NN members run serially at the flush instant (same
    // store snapshot as the batch); only range queries merge.
    std::vector<PendingQuery> ranged;
    ranged.reserve(g.members.size());
    for (PendingQuery& p : g.members) {
      if (p.query.cls() == storage::QueryClass::Range)
        ranged.push_back(std::move(p));
      else
        execute_serial(p);
    }
    if (ranged.empty()) continue;
    g.members = std::move(ranged);
    std::vector<storage::RangeQuery> queries;
    queries.reserve(g.members.size());
    for (const PendingQuery& p : g.members) queries.push_back(p.query.range());

    storage::BatchQueryReceipt batch = system_.query_batch(g.sink, queries);
    absorb_fault_stats();
    batches_.inc();
    messages_.add(batch.messages);
    messages_saved_.add(batch.messages_saved);
    serial_cell_visits_.add(batch.serial_cell_visits);
    unique_cell_visits_.add(batch.unique_cell_visits);
    batch_occupancy_.add(static_cast<double>(g.members.size()));
    dedup_ratio_.add(
        batch.unique_cell_visits > 0
            ? static_cast<double>(batch.serial_cell_visits) /
                  static_cast<double>(batch.unique_cell_visits)
            : 1.0);

    // The transport was shared, so per-query attribution is a policy
    // choice: amortize each message field evenly across the batch
    // (remainder to the earliest queries) unless the implementation
    // already attributed exactly.
    std::uint64_t attributed = 0;
    for (const auto& r : batch.per_query) attributed += r.messages;
    if (attributed != batch.messages) {
      const auto spread = [&](std::uint64_t total,
                              std::uint64_t storage::QueryReceipt::*field) {
        const std::uint64_t n = batch.per_query.size();
        const std::uint64_t base = total / n;
        const std::uint64_t rem = total % n;
        for (std::uint64_t i = 0; i < n; ++i)
          batch.per_query[i].*field = base + (i < rem ? 1 : 0);
      };
      spread(batch.messages, &storage::QueryReceipt::messages);
      spread(batch.query_messages, &storage::QueryReceipt::query_messages);
      spread(batch.reply_messages, &storage::QueryReceipt::reply_messages);
    }

    for (std::size_t i = 0; i < g.members.size(); ++i) {
      finish(g.members[i].ticket, g.members[i].query,
             std::move(batch.per_query[i]));
    }
  }
}

storage::QueryReceipt QueryEngine::take(Ticket ticket) {
  if (!ready(ticket)) flush();
  const auto it = results_.find(ticket);
  if (it == results_.end())
    throw ConfigError("QueryEngine: unknown or already-taken ticket");
  storage::QueryReceipt receipt = std::move(it->second);
  results_.erase(it);
  return receipt;
}

storage::InsertReceipt QueryEngine::insert(net::NodeId source,
                                           const storage::Event& e) {
  advance_clock(1);
  const storage::InsertReceipt receipt = system_.insert(source, e);
  absorb_fault_stats();
  cache_.invalidate_containing(e.values);
  return receipt;
}

std::size_t QueryEngine::expire_before(double cutoff) {
  // Aging removes exactly the stored events detected before the cutoff,
  // so each cached answer stays exact after shedding those same events —
  // surviving entries keep serving hits.
  cache_.expire_data_before(cutoff);
  return system_.expire_before(cutoff);
}

}  // namespace poolnet::engine
