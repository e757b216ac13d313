#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::Op: return "op";
    case Layer::ServerParse: return "server.parse";
    case Layer::ServerEncode: return "server.encode";
    case Layer::ServerDecode: return "server.decode";
    case Layer::Engine: return "engine";
    case Layer::Core: return "core";
    case Layer::Dim: return "dim";
    case Layer::Storage: return "storage";
    case Layer::RoutingProbe: return "routing.probe";
    case Layer::RoutingGpsr: return "routing.gpsr";
    case Layer::Check: return "check";
    case Layer::kCount: break;
  }
  return "?";
}

void Tracer::clear() {
  log_.clear();
  open_.clear();
  self_ns_ = {};
  spans_ = {};
  op_ = 0;
  group_ = 0;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "layer,op,parent,start_ns,end_ns\n");
  for (const Span& s : log_)
    std::fprintf(f, "%s,%llu,%lld,%lld,%lld\n", layer_name(s.layer),
                 static_cast<unsigned long long>(s.op),
                 s.parent == kNoParent ? -1LL
                                       : static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  return std::fclose(f) == 0;
}

// --- TimedRouter -----------------------------------------------------------

void TimedRouter::count(const routing::RouteResult& r) const {
  ++counts_.calls;
  counts_.hops += r.hops();
  counts_.perimeter_hops += r.perimeter_hops;
}

routing::RouteResult TimedRouter::route_to_node(net::NodeId src,
                                                net::NodeId dst) const {
  Scope s(&tracer_, layer_);
  routing::RouteResult r = inner_.route_to_node(src, dst);
  count(r);
  return r;
}

routing::RouteResult TimedRouter::route_to_location(net::NodeId src,
                                                    Point dest) const {
  Scope s(&tracer_, layer_);
  routing::RouteResult r = inner_.route_to_location(src, dest);
  count(r);
  return r;
}

void TimedRouter::route_to_node_into(net::NodeId src, net::NodeId dst,
                                     routing::RouteResult& out) const {
  Scope s(&tracer_, layer_);
  inner_.route_to_node_into(src, dst, out);
  count(out);
}

void TimedRouter::route_to_location_into(net::NodeId src, Point dest,
                                         routing::RouteResult& out) const {
  Scope s(&tracer_, layer_);
  inner_.route_to_location_into(src, dest, out);
  count(out);
}

// --- DelayRouter -----------------------------------------------------------

void DelayRouter::spin() const {
  const std::int64_t until = now_ns() + delay_ns_;
  while (now_ns() < until) {
  }
}

routing::RouteResult DelayRouter::route_to_node(net::NodeId src,
                                                net::NodeId dst) const {
  spin();
  return inner_.route_to_node(src, dst);
}

routing::RouteResult DelayRouter::route_to_location(net::NodeId src,
                                                    Point dest) const {
  spin();
  return inner_.route_to_location(src, dest);
}

void DelayRouter::route_to_node_into(net::NodeId src, net::NodeId dst,
                                     routing::RouteResult& out) const {
  spin();
  inner_.route_to_node_into(src, dst, out);
}

void DelayRouter::route_to_location_into(net::NodeId src, Point dest,
                                         routing::RouteResult& out) const {
  spin();
  inner_.route_to_location_into(src, dest, out);
}

// --- TimedSystem -----------------------------------------------------------

storage::InsertReceipt TimedSystem::insert(net::NodeId source,
                                           const storage::Event& event) {
  Scope s(&tracer_, layer_);
  return inner_.insert(source, event);
}

storage::QueryReceipt TimedSystem::query(net::NodeId sink,
                                         const storage::RangeQuery& query) {
  Scope s(&tracer_, layer_);
  return inner_.query(sink, query);
}

storage::QueryReceipt TimedSystem::skyline(net::NodeId sink,
                                           const storage::SkylineQuery& query) {
  Scope s(&tracer_, layer_);
  return inner_.skyline(sink, query);
}

storage::QueryReceipt TimedSystem::k_nearest(
    net::NodeId sink, const storage::KNearestQuery& query) {
  Scope s(&tracer_, layer_);
  return inner_.k_nearest(sink, query);
}

storage::BatchQueryReceipt TimedSystem::query_batch(
    net::NodeId sink, const std::vector<storage::RangeQuery>& queries) {
  Scope s(&tracer_, layer_);
  return inner_.query_batch(sink, queries);
}

storage::AggregateReceipt TimedSystem::aggregate(
    net::NodeId sink, const storage::RangeQuery& query,
    storage::AggregateKind kind, std::size_t value_dim) {
  Scope s(&tracer_, layer_);
  return inner_.aggregate(sink, query, kind, value_dim);
}

std::size_t TimedSystem::expire_before(double cutoff) {
  Scope s(&tracer_, layer_);
  return inner_.expire_before(cutoff);
}

}  // namespace perfbench
