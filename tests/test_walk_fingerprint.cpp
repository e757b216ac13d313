// Golden receipt fingerprints for every query class of every system.
//
// FNV-1a over what each class returns and charges: event ids in result
// order, the cost triple, index_nodes_visited, rounds, messages_saved,
// aggregate results, subscription traffic and notifications, fault
// counters, and the per-node tx/rx/stored ledger. Each (system,
// configuration, class) has its own constant, so a change names the class
// it touched. Fault-free runs cover Pool (sharing off/on × replicas 0/2),
// DIM, GHT and central; fault runs (10% of the nodes die silently after
// the inserts, sharing off) cover every class whose fault behaviour is
// pinned. Pool k-NN under faults is covered by the regression tests in
// test_fault_tolerance.cpp instead: it used to skip dead-holder repair.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_support/testbed.h"
#include "query/query_gen.h"

namespace poolnet {
namespace {

using benchsup::SystemKind;
using net::NodeId;
using storage::RangeQuery;

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mix_double(double d) { mix(std::bit_cast<std::uint64_t>(d)); }
  void mix(const storage::CostBreakdown& c) {
    mix(c.messages);
    mix(c.query_messages);
    mix(c.reply_messages);
  }
  void mix(const storage::QueryReceipt& r) {
    mix(r.events.size());
    for (const auto& e : r.events) mix(e.id);
    mix(r.cost());
    mix(r.index_nodes_visited);
    mix(r.rounds);
  }
  void mix(const storage::AggregateReceipt& r) {
    mix(r.cost());
    mix(r.index_nodes_visited);
    mix_double(r.result.value);
    mix(r.result.count);
    mix(r.result.valid ? 1 : 0);
  }
  void mix(const storage::BatchQueryReceipt& b) {
    mix(b.cost());
    mix(b.index_nodes_visited);
    mix(b.serial_cell_visits);
    mix(b.unique_cell_visits);
    mix(b.messages_saved);
    for (const auto& r : b.per_query) mix(r);
  }
  void mix(const storage::FaultStats& f) {
    mix(f.failovers);
    mix(f.events_lost);
    mix(f.events_restored);
    mix(f.retries);
    mix(f.failed_legs);
  }
};

/// Per-node ledger deltas since construction of the mark.
struct LedgerMark {
  explicit LedgerMark(const net::Network& net) : net_(net) {
    for (const auto& n : net.nodes()) {
      tx_.push_back(n.tx_count);
      rx_.push_back(n.rx_count);
    }
  }
  void mix_into(Fnv& h) const {
    for (NodeId i = 0; i < net_.size(); ++i) {
      const auto& n = net_.node(i);
      h.mix(n.tx_count - tx_[i]);
      h.mix(n.rx_count - rx_[i]);
      h.mix(n.stored_events);
    }
  }
  const net::Network& net_;
  std::vector<std::uint64_t> tx_, rx_;
};

constexpr std::size_t kDims = 3;

benchsup::TestbedConfig bed_config(std::vector<SystemKind> systems,
                                   bool sharing, std::uint32_t replicas,
                                   bool route_cache) {
  benchsup::TestbedConfig c;
  c.route_cache.enabled = route_cache;
  c.nodes = 300;
  c.dims = kDims;
  c.events_per_node = 3;
  c.seed = 7;
  c.systems = std::move(systems);
  c.pool.workload_sharing = sharing;
  c.pool.share_threshold = 4;
  c.pool.replicas = replicas;
  return c;
}

/// The systems under test, each on its own stack of one testbed, with the
/// workload inserted.
struct Deployment {
  explicit Deployment(std::vector<SystemKind> systems, bool sharing = false,
                      std::uint32_t replicas = 0, bool route_cache = true)
      : tb(bed_config(std::move(systems), sharing, replicas, route_cache)) {
    tb.insert_workload();
  }
  benchsup::Testbed tb;
};

const std::vector<std::string> kClasses = {"exact", "partial", "point",
                                           "aggregate", "skyline", "knn",
                                           "batch8"};

NodeId alive_sink(const net::Network& net, Rng& rng) {
  for (;;) {
    const auto id = static_cast<NodeId>(
        rng.uniform_int(0, static_cast<std::int64_t>(net.size()) - 1));
    if (net.alive(id)) return id;
  }
}

RangeQuery point_at(const storage::Event& e) {
  RangeQuery::Bounds b;
  for (std::size_t d = 0; d < e.dims(); ++d)
    b.push_back({e.values[d], e.values[d]});
  return RangeQuery(b);
}

/// Runs one class on `sys` and hashes receipts plus the ledger delta.
std::uint64_t run_class(const std::string& cls, Deployment& dep,
                        SystemKind which) {
  storage::DcsSystem& sys = dep.tb.system(which);
  net::Network& net = dep.tb.network(which);
  const auto& events = dep.tb.oracle().all();
  query::QueryGenerator gen({kDims}, 0xf1 + cls.size());
  Rng rng(0x5eed + cls.size());
  Fnv h;
  const LedgerMark mark(net);
  for (int i = 0; i < 10; ++i) {
    const NodeId sink = alive_sink(net, rng);
    if (cls == "exact") {
      h.mix(sys.query(sink, gen.exact_range()));
    } else if (cls == "partial") {
      h.mix(sys.query(sink, gen.partial_range(1)));
    } else if (cls == "point") {
      h.mix(sys.query(sink, gen.exact_point()));
      h.mix(sys.query(sink, point_at(events[(i * 37) % events.size()])));
    } else if (cls == "aggregate") {
      const RangeQuery q = gen.exact_range();
      for (const auto kind :
           {storage::AggregateKind::Count, storage::AggregateKind::Sum,
            storage::AggregateKind::Min, storage::AggregateKind::Max,
            storage::AggregateKind::Average})
        h.mix(sys.aggregate(sink, q, kind, static_cast<std::size_t>(i) % kDims));
    } else if (cls == "skyline") {
      h.mix(sys.execute(sink, gen.skyline_query()));
    } else if (cls == "knn") {
      h.mix(sys.execute(sink, gen.knn_query(8)));
    } else if (cls == "batch8") {
      if (i >= 3) break;
      std::vector<RangeQuery> qs;
      for (int j = 0; j < 3; ++j) qs.push_back(gen.exact_range());
      for (int j = 0; j < 3; ++j) qs.push_back(gen.partial_range(1));
      qs.push_back(point_at(events[(i * 53) % events.size()]));
      qs.push_back(qs[0]);
      h.mix(sys.query_batch(sink, qs));
    }
  }
  mark.mix_into(h);
  h.mix(sys.fault_stats());
  return h.h;
}

/// Continuous queries: registration, notifications on later inserts and
/// cancellation traffic.
std::uint64_t run_subscriptions(Deployment& dep) {
  auto& pool = dep.tb.pool();
  auto& net = dep.tb.network(SystemKind::Pool);
  query::QueryGenerator gen({kDims}, 0x5b);
  Rng rng(0x5b5b);
  Fnv h;
  const LedgerMark mark(net);
  std::vector<core::PoolSystem::SubscriptionId> ids;
  for (int i = 0; i < 6; ++i) {
    const auto before = net.traffic().total;
    ids.push_back(pool.subscribe(alive_sink(net, rng),
                                 i % 2 ? gen.partial_range(1)
                                       : gen.exact_range()));
    h.mix(net.traffic().total - before);
  }
  for (std::uint64_t i = 0; i < 120; ++i) {
    storage::Event e;
    e.id = 1'000'000 + i;
    e.source = alive_sink(net, rng);
    for (std::size_t d = 0; d < kDims; ++d) e.values.push_back(rng.uniform());
    const auto r = pool.insert(e.source, e);
    h.mix(r.stored_at);
    h.mix(r.messages);
  }
  for (const auto id : ids) {
    for (const auto& n : pool.take_notifications(id)) {
      h.mix(n.subscription);
      h.mix(n.event.id);
    }
    const auto before = net.traffic().total;
    pool.unsubscribe(id);
    h.mix(net.traffic().total - before);
  }
  mark.mix_into(h);
  return h.h;
}

/// Kills every node whose id draws below 10% (the same ids on every
/// system's network), without telling the systems.
void kill_tenth(net::Network& net) {
  Rng rng(0xdead);
  for (NodeId id = 0; id < net.size(); ++id)
    if (rng.uniform() < 0.1) net.kill(id);
}

std::map<std::string, std::uint64_t> compute_fingerprints() {
  std::map<std::string, std::uint64_t> out;
  for (const bool sharing : {false, true}) {
    for (const std::uint32_t replicas : {0u, 2u}) {
      Deployment dep({SystemKind::Pool}, sharing, replicas);
      char prefix[48];
      std::snprintf(prefix, sizeof(prefix), "pool/share%d/rep%u/",
                    sharing ? 1 : 0, replicas);
      {
        Fnv h;
        LedgerMark(dep.tb.network(SystemKind::Pool)).mix_into(h);
        h.mix(dep.tb.insert_traffic(SystemKind::Pool).total);
        out[std::string(prefix) + "insert"] = h.h;
      }
      for (const auto& cls : kClasses)
        out[prefix + cls] = run_class(cls, dep, SystemKind::Pool);
      out[std::string(prefix) + "subscribe"] = run_subscriptions(dep);
    }
  }
  {
    Deployment dep({SystemKind::Dim, SystemKind::Ght, SystemKind::Central});
    for (const SystemKind kind : dep.tb.systems()) {
      for (const auto& cls : kClasses)
        out[benchsup::to_string(kind) + ("/" + cls)] =
            run_class(cls, dep, kind);
    }
  }
  // Fault runs: a fresh deployment per (system, class), so one class's
  // failover discoveries never leak into another's fingerprint. GHT and
  // central route over the bare Gpsr here: after a silent kill a cached
  // route is replayed up to the dead node before it is dropped, while
  // GPSR's beacons steer around it from the start, so the cache is part
  // of what a fault constant pins.
  for (const std::string which : {"pool", "pool-rep2", "dim", "ght", "central"}) {
    SystemKind kind = SystemKind::Pool;
    if (!which.starts_with("pool")) {
      std::string error;
      EXPECT_TRUE(benchsup::parse_system_kind(which, &kind, &error)) << error;
    }
    for (const auto& cls : kClasses) {
      if (kind == SystemKind::Pool && cls == "knn") continue;
      const bool cached = kind == SystemKind::Pool || kind == SystemKind::Dim;
      Deployment dep({kind}, false, which == "pool-rep2" ? 2 : 0, cached);
      kill_tenth(dep.tb.network(kind));
      out["fault/" + which + "/" + cls] = run_class(cls, dep, kind);
    }
  }
  return out;
}

// Captured on the per-class query implementations (one copy of the
// dissemination walk per entry point) before they were folded into one
// walker per system. Three entries were re-captured on the walker: Pool
// k-NN with sharing (share1/*/knn) now charges the delegate polls, and
// DIM k-NN under faults retries toward a dead owner's adopter. Five batch
// entries were re-captured when a range query became a batch of one:
// dim/batch8 (DIM shares a leg only among the members it carries from one
// node into one zone, so a query's own repeated legs are paid as a serial
// query pays them) and fault/{pool,pool-rep2,dim,ght}/batch8 (batches
// merge under faults instead of falling back to serial issue).
const std::map<std::string, std::uint64_t> kGolden = {
    {"central/aggregate", 0xad1b62906487b631ull},
    {"central/batch8", 0x6396c6b9958a5bf1ull},
    {"central/exact", 0x65cbb59525000040ull},
    {"central/knn", 0x5bd9e2e890d63c0aull},
    {"central/partial", 0x142e05b28e9a08f2ull},
    {"central/point", 0xa2202eff7c3cdeedull},
    {"central/skyline", 0xd4ed316be20938fdull},
    {"dim/aggregate", 0xb6693cd8d8137c99ull},
    {"dim/batch8", 0xc04eaec5013c1adcull},
    {"dim/exact", 0x8c445a0bc3dc63b9ull},
    {"dim/knn", 0x83d8cc3d7404b23aull},
    {"dim/partial", 0xe834c22ef6e5dbc2ull},
    {"dim/point", 0x291183bc33127d69ull},
    {"dim/skyline", 0xa046a99b36b08aebull},
    {"fault/central/aggregate", 0x51d13363c92d077dull},
    {"fault/central/batch8", 0x19f5b22b1b807689ull},
    {"fault/central/exact", 0x9f003e204fb2c6f2ull},
    {"fault/central/knn", 0xbc4d896d1c791510ull},
    {"fault/central/partial", 0xaa3f69f0ad0d177cull},
    {"fault/central/point", 0xccd94aeb1c494421ull},
    {"fault/central/skyline", 0x6fbcd4798de674b7ull},
    {"fault/dim/aggregate", 0x718b9a3413b1275aull},
    {"fault/dim/batch8", 0x8a2dd54f738c6f2aull},
    {"fault/dim/exact", 0x26f2b6313019bfcaull},
    {"fault/dim/knn", 0xca66ee0d373ff844ull},
    {"fault/dim/partial", 0xa9a1ca3437c5ec70ull},
    {"fault/dim/point", 0x119e986592a6e287ull},
    {"fault/dim/skyline", 0xc5e40d0ee98a8455ull},
    {"fault/ght/aggregate", 0xa9efdc898a3b0b9aull},
    {"fault/ght/batch8", 0x4b4894b14c28f79cull},
    {"fault/ght/exact", 0x214b557529ac21cfull},
    {"fault/ght/knn", 0x129d05dc3b514fd4ull},
    {"fault/ght/partial", 0xe5bbd274e403daf7ull},
    {"fault/ght/point", 0x2d1d22644cd3c72bull},
    {"fault/ght/skyline", 0xb4ce3045a9bf3b00ull},
    {"fault/pool-rep2/aggregate", 0x65d013072ab107f2ull},
    {"fault/pool-rep2/batch8", 0x69975ec064f640d6ull},
    {"fault/pool-rep2/exact", 0xfb9139b15f042790ull},
    {"fault/pool-rep2/partial", 0x1151f8e6c4984504ull},
    {"fault/pool-rep2/point", 0x86cff0b39bbf057eull},
    {"fault/pool-rep2/skyline", 0xbc1394ddb8888ebeull},
    {"fault/pool/aggregate", 0x37d0d4f066c82fb1ull},
    {"fault/pool/batch8", 0x03701cc23c8d8ac2ull},
    {"fault/pool/exact", 0x760a366be827b99eull},
    {"fault/pool/partial", 0x59ec2fb0286bf89eull},
    {"fault/pool/point", 0x002081f057b2cbd5ull},
    {"fault/pool/skyline", 0xaf23615d74ab0c46ull},
    {"ght/aggregate", 0xed7d2f5cff580369ull},
    {"ght/batch8", 0x48d4c14328f54650ull},
    {"ght/exact", 0xda02321200b91d3aull},
    {"ght/knn", 0x884f81c2798c3ffaull},
    {"ght/partial", 0x04dc5a18bf196cd9ull},
    {"ght/point", 0xcafa659d1b876051ull},
    {"ght/skyline", 0x743682bf0d1cdd95ull},
    {"pool/share0/rep0/aggregate", 0x3e14d81339d105fdull},
    {"pool/share0/rep0/batch8", 0x41972c9d2e5ccd16ull},
    {"pool/share0/rep0/exact", 0x1bd6f5c5b59f989aull},
    {"pool/share0/rep0/insert", 0x3c12405ab26cefeaull},
    {"pool/share0/rep0/knn", 0x3abe67ef30c60984ull},
    {"pool/share0/rep0/partial", 0xc53feb7f85581a19ull},
    {"pool/share0/rep0/point", 0xf9e97ed8641f29c5ull},
    {"pool/share0/rep0/skyline", 0x1dac8cdb7a5c74fcull},
    {"pool/share0/rep0/subscribe", 0x6e2c16a8ef98f85full},
    {"pool/share0/rep2/aggregate", 0x8a1ef03ca41bf247ull},
    {"pool/share0/rep2/batch8", 0xcfd16d2dd6924dc4ull},
    {"pool/share0/rep2/exact", 0x4dc46672049eba08ull},
    {"pool/share0/rep2/insert", 0xae618a6908a2e568ull},
    {"pool/share0/rep2/knn", 0xc02a9192f3b6ec16ull},
    {"pool/share0/rep2/partial", 0x2b9beacb7e89cd8bull},
    {"pool/share0/rep2/point", 0x9348f359a1087a97ull},
    {"pool/share0/rep2/skyline", 0xe609a204d59424eeull},
    {"pool/share0/rep2/subscribe", 0x215a151aa872527eull},
    {"pool/share1/rep0/aggregate", 0x65fdb5120afc5bfdull},
    {"pool/share1/rep0/batch8", 0xbd6ba44e0be73372ull},
    {"pool/share1/rep0/exact", 0xdadf52e255f063d8ull},
    {"pool/share1/rep0/insert", 0x19f9fd76a5c86c56ull},
    {"pool/share1/rep0/knn", 0x9449c853fb86c69aull},
    {"pool/share1/rep0/partial", 0x21bdb8fd2e92d187ull},
    {"pool/share1/rep0/point", 0xc885da97a090db3bull},
    {"pool/share1/rep0/skyline", 0x96ef48c4894455e8ull},
    {"pool/share1/rep0/subscribe", 0x5139b8436657e762ull},
    {"pool/share1/rep2/aggregate", 0x40dce1b731255855ull},
    {"pool/share1/rep2/batch8", 0x3992658a9d29bd7full},
    {"pool/share1/rep2/exact", 0x7ff4120efdfee726ull},
    {"pool/share1/rep2/insert", 0x099a1b2891f511d1ull},
    {"pool/share1/rep2/knn", 0x7815969ffaace14aull},
    {"pool/share1/rep2/partial", 0x52352e0a4c262e99ull},
    {"pool/share1/rep2/point", 0xcefe1ee6bbf3ee4bull},
    {"pool/share1/rep2/skyline", 0xb271a553986508caull},
    {"pool/share1/rep2/subscribe", 0x290649eca7cc2154ull},
};

TEST(WalkFingerprint, GoldenReceipts) {
  const auto got = compute_fingerprints();
  for (const auto& [name, hash] : got) {
    const auto it = kGolden.find(name);
    if (it == kGolden.end()) {
      ADD_FAILURE() << "no golden value for " << name;
      std::printf("    {\"%s\", 0x%016llxull},\n", name.c_str(),
                  static_cast<unsigned long long>(hash));
      continue;
    }
    EXPECT_EQ(hash, it->second) << name;
  }
  EXPECT_EQ(got.size(), kGolden.size());
}

}  // namespace
}  // namespace poolnet
