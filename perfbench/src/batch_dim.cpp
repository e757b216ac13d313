// batch_dim: DIM (the paper's baseline) behind the QueryEngine with epoch
// batching and the result cache on, reached through the server's codec
// the way a batching poolnetd reaches it: each statement goes through
// parse_query, each answer through encode_events and decode_events. A hot
// set of rectangles repeats, so the cache and the merged query_batch/dedup
// paths carry the load, and inserts between epochs invalidate cache
// entries.
#include "engine/query_engine.h"
#include "inproc.h"
#include "query/query_gen.h"
#include "query/workload.h"
#include "server/query_language.h"
#include "server/wire.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::size_t kNodes = 2700;
constexpr std::size_t kDims = 3;
constexpr std::size_t kPreloadPerNode = 3;
constexpr std::size_t kEpoch = 16;          ///< queries submitted per flush
constexpr std::size_t kInsertsPerEpoch = 8; ///< inserts between epochs
constexpr std::size_t kHotSet = 2048;       ///< the rectangles queried
constexpr std::uint64_t kHotSetSeed = 1;    ///< fixed, like the deployment
constexpr std::size_t kSources = 64;        ///< nodes that detect events

struct Epoch {
  std::vector<const std::string*> statements;  ///< SELECTs of the hot set
  std::vector<net::NodeId> sinks;
  std::vector<storage::Event> inserts;
};

/// The fixed query sinks: the nodes nearest two opposite quarter points.
std::vector<net::NodeId> sinks_of(const net::Network& network) {
  const Rect& f = network.field();
  const double w = f.width(), h = f.height();
  return {network.nearest_node(Point{f.min_x + w / 4, f.min_y + h / 4}),
          network.nearest_node(
              Point{f.min_x + 3 * w / 4, f.min_y + 3 * h / 4})};
}

/// Epochs of kEpoch range queries (exact-match, exponential sizes) drawn
/// uniformly from a fixed hot set of kHotSet rectangles, alternating
/// between the fixed sinks; each epoch is followed by kInsertsPerEpoch
/// inserts from a fixed set of kSources source nodes (so the route cache
/// and the memory peak settle), which invalidate the cached rectangles
/// they fall in. --seed picks the order and the inserted events.
class EpochStream {
 public:
  EpochStream(std::uint64_t seed, std::vector<net::NodeId> sinks)
      : rng_(seed * 2909 + 17),
        events_(query::WorkloadConfig{}, seed * 4093 + 9),
        sinks_(std::move(sinks)) {
    query::QueryGenerator queries(gen_config(), kHotSetSeed);
    for (std::size_t i = 0; i < kHotSet; ++i)
      hot_.push_back(server::to_query_text(queries.exact_range()));
    Rng fixed(kHotSetSeed);
    for (std::size_t i = 0; i < kSources; ++i)
      sources_.push_back(static_cast<net::NodeId>(
          fixed.uniform_int(0, static_cast<std::int64_t>(kNodes) - 1)));
  }

  Epoch next() {
    Epoch e;
    for (std::size_t i = 0; i < kEpoch; ++i) {
      e.statements.push_back(&hot_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(kHotSet) - 1))]);
      e.sinks.push_back(sinks_[i % sinks_.size()]);
    }
    for (std::size_t i = 0; i < kInsertsPerEpoch; ++i) {
      storage::Event ev = events_.next(sources_[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(kSources) - 1))]);
      ev.id += kIdBase;  // disjoint from the preloaded ids
      e.inserts.push_back(ev);
    }
    return e;
  }

 private:
  static constexpr std::uint64_t kIdBase = 1'000'000'000;
  static query::QueryGenConfig gen_config() {
    query::QueryGenConfig c;
    c.dims = kDims;
    c.dist = query::RangeSizeDistribution::Exponential;
    return c;
  }
  Rng rng_;
  query::EventGenerator events_;
  std::vector<net::NodeId> sinks_;
  std::vector<net::NodeId> sources_;
  std::vector<std::string> hot_;
};

StackConfig stack_config(Tracer* tracer) {
  StackConfig c;
  c.kind = StackKind::Dim;
  c.nodes = kNodes;
  c.dims = kDims;
  c.tracer = tracer;
  return c;
}

std::unique_ptr<Stack> build(Tracer* tracer) {
  auto stack = std::make_unique<Stack>(stack_config(tracer));
  stack->preload_per_node(kPreloadPerNode);
  return stack;
}

engine::QueryEngineConfig engine_config() {
  engine::QueryEngineConfig c;
  c.batch_size = kEpoch + 1;  // the caller flushes each epoch itself
  c.batch_deadline = std::uint64_t{1} << 40;
  c.cache.enabled = true;
  return c;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

ChildResult measure(const RunArgs& args, bool traced, double seconds) {
  ChildResult out;
  out.digests.reserve(kSampleReserve);
  const double rss0 = current_rss_mb();
  Tracer tracer;
  Tracer* tr = traced ? &tracer : nullptr;
  std::unique_ptr<Stack> stack = build(tr);
  out.values["setup_s"] = stack->times().total();
  engine::QueryEngine engine(stack->system(), engine_config(),
                             &stack->metrics());

  Recorder rec(*stack, tr);
  EpochStream stream(args.seed, sinks_of(stack->network()));
  std::vector<engine::QueryEngine::Ticket> tickets(kEpoch);
  std::vector<double> started(kEpoch), done(kEpoch);
  std::vector<std::vector<std::uint8_t>> bodies(kEpoch);
  std::vector<storage::Event> decoded;
  std::size_t results = 0, visits = 0;
  double result_bytes = 0;
  const double deadline = now_s() + seconds;
  // One operation is one epoch (parse and submit all, flush, take, encode
  // and decode all) or one insert.
  while (now_s() < deadline) {
    Epoch e = stream.next();
    rec.run(OpKind::Batch, [&] {
      for (std::size_t i = 0; i < kEpoch; ++i) {
        started[i] = now_s();
        const storage::QueryRequest req = [&] {
          Scope s(tr, Layer::ServerParse);
          return parse_statement(*e.statements[i], kDims);
        }();
        Scope s(tr, Layer::Engine);
        tickets[i] = engine.submit(e.sinks[i], req);
      }
      {
        Scope s(tr, Layer::Engine);
        engine.flush();
      }
      for (std::size_t i = 0; i < kEpoch; ++i) {
        storage::QueryReceipt r = [&] {
          Scope s(tr, Layer::Engine);
          return engine.take(tickets[i]);
        }();
        results += r.events.size();
        visits += r.index_nodes_visited;
        {
          Scope s(tr, Layer::ServerEncode);
          bodies[i] = server::encode_events(r.events);
        }
        Scope s(tr, Layer::ServerDecode);
        decoded.clear();
        server::decode_events(bodies[i], &decoded);
        done[i] = now_s();
      }
    });
    {
      Scope check(tr, Layer::Check);
      for (std::size_t i = 0; i < kEpoch; ++i) {
        rec.note_latency(OpKind::Batch, done[i] - started[i]);
        result_bytes += static_cast<double>(bodies[i].size());
        out.digests.push_back(digest_bytes(bodies[i]));
      }
      rec.note_result(OpKind::Batch, results, visits);
      results = visits = 0;
    }
    for (const storage::Event& ev : e.inserts) {
      rec.run(OpKind::Insert, [&] {
        Scope s(tr, Layer::Engine);
        engine.insert(ev.source, ev);
      });
    }
  }
  rec.put_end_to_end(out);
  out.values["peak_rss_mb"] = peak_rss_mb() - rss0;
  if (!traced) return out;

  if (!args.trace_out.empty()) tracer.write(args.trace_out);
  rec.put_layers(out);
  const auto self = [&](OpKind k, Layer l) { return rec.self_seconds(k, l); };
  const OpKind b = OpKind::Batch, ins = OpKind::Insert;
  const double queries = double(rec.totals(OpKind::Batch).queries);
  const double epochs = double(rec.totals(OpKind::Batch).ops);
  const engine::EngineStats es = engine.stats();
  out.values["engine.self_us"] =
      (self(b, Layer::Engine) + self(ins, Layer::Engine)) *
      1e6 / std::max(1.0, queries);
  out.values["engine.cache_hit_rate"] = engine.cache_stats().hit_rate();
  out.values["engine.dedup_ratio"] = es.overall_dedup_ratio();
  out.values["engine.batch_occupancy"] = es.batch_occupancy.mean();
  out.values["engine.messages_saved_per_query"] =
      per(double(es.messages_saved), double(es.submitted));
  out.values["dim.query_self_us"] =
      self(b, Layer::Dim) * 1e6 / std::max(1.0, queries);
  out.values["dim.batch_self_us"] =
      self(b, Layer::Dim) * 1e6 / std::max(1.0, epochs);
  out.values["dim.insert_self_us"] =
      self(ins, Layer::Dim) * 1e6 /
      std::max(1.0, double(rec.totals(OpKind::Insert).ops));
  out.values["dim.visits_per_query"] =
      per(double(rec.totals(OpKind::Batch).visits), queries);
  out.values["server.parse_us"] =
      self(b, Layer::ServerParse) * 1e6 /
      std::max(1.0, queries);
  out.values["server.encode_us"] =
      self(b, Layer::ServerEncode) * 1e6 /
      std::max(1.0, queries);
  out.values["server.result_bytes"] = result_bytes / std::max(1.0, queries);
  out.values["routing.planarize_s"] = stack->times().planarize_s;
  out.values["net.build_s"] = stack->times().net_s;
  return out;
}

/// Serial execution on a twin stack: every statement of an epoch is parsed
/// and run through DcsSystem::execute against the store as the epoch saw
/// it, and its answer encoded as the wire would carry it.
std::vector<std::uint64_t> reference(const RunArgs& args, std::uint64_t ops,
                                     unsigned part, unsigned parts) {
  std::unique_ptr<Stack> twin = build(nullptr);
  storage::DcsSystem& sys = twin->system();
  EpochStream stream(args.seed, sinks_of(twin->network()));
  std::vector<std::uint64_t> digests;
  std::uint64_t op = 0;
  while (op < ops) {
    const Epoch e = stream.next();
    ++op;
    for (std::size_t i = 0; i < kEpoch; ++i) {
      if (digests.size() % parts != part)
        digests.push_back(0);
      else
        digests.push_back(digest_bytes(server::encode_events(
            sys.execute(e.sinks[i], parse_statement(*e.statements[i], kDims))
                .events)));
    }
    for (std::size_t i = 0; i < e.inserts.size() && op < ops; ++i, ++op)
      sys.insert(e.inserts[i].source, e.inserts[i]);
  }
  return digests;
}

}  // namespace

Report run_batch_dim(const RunArgs& args) {
  InprocWorkload w;
  w.measure = [&](bool traced, double seconds) {
    return measure(args, traced, seconds);
  };
  w.reference = [&](std::uint64_t ops, unsigned part, unsigned parts) {
    return reference(args, ops, part, parts);
  };
  return run_inprocess(args, w);
}

}  // namespace perfbench
