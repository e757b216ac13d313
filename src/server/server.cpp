#include "server/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/error.h"
#include "server/query_language.h"

namespace poolnet::server {

Server::Server(ServerConfig config) : config_(std::move(config)) {
  if (config_.max_inflight_per_client == 0)
    throw ConfigError("Server: max_inflight_per_client must be positive");
  if (config_.max_pending_global == 0)
    throw ConfigError("Server: max_pending_global must be positive");

  // The server owns epoch timing in wall-clock (flush_interval_us), so
  // the engine's logical deadline is pinned to "never": epochs flush
  // exactly when the fill loop says so.
  epoch_size_ = std::max<std::size_t>(1, config_.backend.engine.batch_size);
  config_.backend.engine.batch_size = epoch_size_;
  config_.backend.engine.batch_deadline = std::uint64_t{1} << 40;
  backend_ = std::make_unique<Backend>(config_.backend);
  next_event_id_ = backend_->preloaded_events();

  obs::MetricsRegistry& m = backend_->metrics();
  connections_ = m.counter("server.connections");
  disconnects_ = m.counter("server.disconnects");
  queries_in_ = m.counter("server.queries_in");
  queries_out_ = m.counter("server.queries_out");
  inserts_ = m.counter("server.inserts");
  rejected_ = m.counter("server.rejected");
  parse_errors_ = m.counter("server.parse_errors");
  epochs_ = m.counter("server.epochs");
  occupancy_ = m.histogram("server.epoch.occupancy", 1.0,
                           std::max<std::size_t>(epoch_size_ + 1, 16));
}

Server::~Server() { stop(); }

void Server::start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0)
    throw ConfigError("Server: socket() failed: " +
                      std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(config_.port);
  if (::inet_pton(AF_INET, config_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("Server: bad listen address " + config_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
          0 ||
      ::listen(listen_fd_, 128) < 0 ||
      ::pipe2(wake_fds_, O_NONBLOCK | O_CLOEXEC) < 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw ConfigError("Server: cannot listen on " + config_.host + ":" +
                      std::to_string(config_.port) + ": " + why);
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);

  running_ = true;
  loop_thread_ = std::thread(&Server::loop, this);
}

void Server::stop() {
  if (!running_) return;
  running_ = false;
  // Wake the loop; it drains, closes every socket and returns.
  const std::uint8_t wake = 1;
  while (::write(wake_fds_[1], &wake, 1) < 0 && errno == EINTR) {
  }
  loop_thread_.join();
  ::close(wake_fds_[0]);
  ::close(wake_fds_[1]);
  wake_fds_[0] = wake_fds_[1] = -1;
}

ServerStats Server::stats() const {
  ServerStats s;
  s.connections = connections_.value();
  s.disconnects = disconnects_.value();
  s.queries_in = queries_in_.value();
  s.queries_out = queries_out_.value();
  s.inserts = inserts_.value();
  s.rejected = rejected_.value();
  s.parse_errors = parse_errors_.value();
  s.epochs = epochs_.value();
  return s;
}

void Server::loop() {
  const auto flush_interval =
      std::chrono::microseconds(config_.flush_interval_us);
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> polled;  ///< client id of fds[2 + i]
  while (!draining_ || !clients_.empty()) {
    fds.clear();
    polled.clear();
    // Once draining, neither the self-pipe nor the (closed) listener is
    // polled: the loop only flushes what it still owes.
    fds.push_back({draining_ ? -1 : wake_fds_[0], POLLIN, 0});
    fds.push_back({draining_ ? -1 : listen_fd_, POLLIN, 0});
    std::optional<Clock::time_point> wake_at;
    if (pending_total_ > 0) wake_at = last_input_ + flush_interval;
    for (const auto& [id, client] : clients_) {
      // Read-side backpressure: a client with unsent output is not read.
      short events = 0;
      if (client.unsent() > 0) {
        events = POLLOUT;
        if (draining_) {
          const auto give_up = client.last_progress + kDrainGrace;
          if (!wake_at || give_up < *wake_at) wake_at = give_up;
        }
      } else if (!client.input_closed) {
        events = POLLIN;
      }
      if (events == 0) continue;
      fds.push_back({client.fd, events, 0});
      polled.push_back(id);
    }

    timespec timeout{};
    if (wake_at) {
      const Clock::duration wait =
          std::max(Clock::duration::zero(), *wake_at - Clock::now());
      const auto secs = std::chrono::floor<std::chrono::seconds>(wait);
      timeout.tv_sec = static_cast<time_t>(secs.count());
      timeout.tv_nsec = static_cast<long>(
          std::chrono::nanoseconds(wait - secs).count());
    }
    if (::ppoll(fds.data(), fds.size(), wake_at ? &timeout : nullptr,
                nullptr) < 0 &&
        errno != EINTR) {
      // Only a bad argument or kernel memory exhaustion gets here; the
      // loop cannot serve without ppoll, and an exception would escape
      // the thread's entry function anyway.
      std::fprintf(stderr, "Server: ppoll failed: %s\n", std::strerror(errno));
      std::abort();
    }

    if (fds[1].revents != 0) accept_clients();
    for (std::size_t i = 0; i < polled.size(); ++i) {
      if (fds[2 + i].revents == 0) continue;
      // Re-check the state: another client's epoch may have queued output
      // here since the poll set was built.
      ClientState& client = clients_.at(polled[i]);
      if (client.unsent() > 0) {
        flush_output(client);
      } else if (!client.input_closed) {
        read_client(client);
      }
    }
    if (fds[0].revents != 0) {
      // stop(): close the listener and read nothing more; every admitted
      // query still executes and its result is flushed.
      draining_ = true;
      ::close(listen_fd_);
      listen_fd_ = -1;
      for (auto& [id, client] : clients_) client.input_closed = true;
    }

    if (draining_) {
      while (pending_total_ > 0) run_epoch();
    } else if (pending_total_ > 0 &&
               Clock::now() >= last_input_ + flush_interval) {
      run_epoch();  // partial epoch: no new input for flush_interval
    }
    reap(Clock::now());
  }
}

void Server::accept_clients() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) return;  // EAGAIN: no more pending connections
    // Replies are small frames written one per request: without NODELAY,
    // Nagle holds a reply until the client's next request ACKs the last.
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const std::uint64_t id = next_client_id_++;
    clients_[id].fd = fd;
    rr_order_.push_back(id);
    connections_.inc();
  }
}

void Server::read_client(ClientState& client) {
  std::uint8_t buf[16384];
  const ssize_t n = ::recv(client.fd, buf, sizeof(buf), 0);
  if (n < 0) {
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      drop(client);
    return;
  }
  if (n == 0) {
    // EOF: admitted queries still get their answers — the drain contract.
    client.input_closed = true;
    return;
  }
  last_input_ = Clock::now();
  client.decoder.feed(buf, static_cast<std::size_t>(n));
  Frame frame;
  while (!client.input_closed && client.decoder.next(&frame)) {
    dispatch(client, frame);
    while (pending_total_ >= epoch_size_) run_epoch();
  }
  if (client.decoder.corrupt() && !client.input_closed) bad_frame(client, 0);
}

void Server::dispatch(ClientState& client, const Frame& frame) {
  PayloadReader r(frame.payload);
  const std::uint64_t request_id = r.u64();
  if (!r.ok()) return bad_frame(client, 0);
  switch (frame.type) {
    case FrameType::Query:
      return handle_query(client, request_id, r.rest_text());
    case FrameType::Insert:
      return handle_insert(client, request_id, r.rest_text());
    case FrameType::SubscribeMetrics:
      return handle_metrics(client, request_id);
    default:
      return bad_frame(client, request_id);
  }
}

void Server::bad_frame(ClientState& client, std::uint64_t request_id) {
  // A protocol violation ends the session's input: answer it, then close
  // once everything owed is written.
  parse_errors_.inc();
  client.input_closed = true;
  send_frame(client, encode_error(request_id, ErrorCode::BadFrame,
                                  "malformed frame"));
}

void Server::handle_insert(ClientState& client, std::uint64_t request_id,
                           const std::string& text) {
  storage::Values values;
  std::string error;
  if (!parse_insert(text, config_.backend.dims, &values, &error)) {
    parse_errors_.inc();
    send_frame(client,
               encode_error(request_id, ErrorCode::ParseError, error));
    return;
  }
  storage::Event e;
  e.id = ++next_event_id_;
  e.source = backend_->sink();
  e.values = values;
  // Inserts route through the engine so cached result rectangles
  // containing the new event invalidate before they can serve stale.
  const storage::InsertReceipt r =
      backend_->engine().insert(backend_->sink(), e);
  inserts_.inc();
  std::vector<std::uint8_t> body;
  put_u32(body, static_cast<std::uint32_t>(r.stored_at));
  send_frame(client, encode_result(request_id, ResultKind::Insert, body));
}

void Server::handle_metrics(ClientState& client, std::uint64_t request_id) {
  const obs::Snapshot snap = backend_->metrics().scrape();
  std::vector<std::uint8_t> body;
  put_text(body, snap.to_json());
  send_frame(client, encode_result(request_id, ResultKind::Metrics, body));
}

void Server::handle_query(ClientState& client, std::uint64_t request_id,
                          const std::string& text) {
  // Placeholder with valid bounds (RangeQuery rejects empty ones);
  // parse_query overwrites it on success.
  storage::RangeQuery::Bounds one;
  one.push_back(ClosedInterval{0.0, 1.0});
  storage::QueryRequest query{storage::RangeQuery{one}};
  std::string error;
  if (!parse_query(text, config_.backend.dims, &query, &error)) {
    parse_errors_.inc();
    send_frame(client,
               encode_error(request_id, ErrorCode::ParseError, error));
    return;
  }
  if (client.queue.size() >= config_.max_inflight_per_client) {
    rejected_.inc();
    send_frame(client,
               encode_error(request_id, ErrorCode::TooManyInFlight,
                            "client in-flight limit of " +
                                std::to_string(
                                    config_.max_inflight_per_client) +
                                " reached"));
    return;
  }
  if (pending_total_ >= config_.max_pending_global) {
    rejected_.inc();
    send_frame(client,
               encode_error(request_id, ErrorCode::ServerBusy,
                            "server pending limit of " +
                                std::to_string(config_.max_pending_global) +
                                " reached"));
    return;
  }
  client.queue.push_back(PendingQuery{request_id, std::move(query)});
  ++pending_total_;
  queries_in_.inc();
}

void Server::run_epoch() {
  const std::size_t n = std::min(epoch_size_, pending_total_);
  if (n == 0) return;

  struct Issued {
    ClientState* client;
    std::uint64_t request_id;
    engine::QueryEngine::Ticket ticket;
  };
  std::vector<Issued> issued;
  issued.reserve(n);

  engine::QueryEngine& eng = backend_->engine();
  const net::NodeId sink = backend_->sink();
  // Fairness: one query per client per turn, so a deep queue on one
  // connection cannot crowd the others out of the epoch.
  std::size_t idle_scans = 0;
  while (issued.size() < n && idle_scans <= rr_order_.size()) {
    if (rr_order_.empty()) break;
    if (rr_next_ >= rr_order_.size()) rr_next_ = 0;
    ClientState& client = clients_.at(rr_order_[rr_next_]);
    ++rr_next_;
    if (client.queue.empty()) {
      ++idle_scans;
      continue;
    }
    idle_scans = 0;
    PendingQuery p = std::move(client.queue.front());
    client.queue.pop_front();
    issued.push_back(
        Issued{&client, p.request_id, eng.submit(sink, p.query)});
  }
  pending_total_ -= issued.size();
  eng.flush();
  occupancy_.add(static_cast<double>(issued.size()));
  epochs_.inc();

  for (const Issued& i : issued) {
    const storage::QueryReceipt r = eng.take(i.ticket);
    std::vector<std::uint8_t> body = encode_events(r.events);
    // A RESULT frame is u64 id + u8 kind + body after its type byte; one
    // the client's own FrameDecoder would reject becomes a typed error.
    if (1 + 8 + 1 + body.size() > kMaxFrameBytes) {
      send_frame(*i.client,
                 encode_error(i.request_id, ErrorCode::ResultTooLarge,
                              "result of " + std::to_string(r.events.size()) +
                                  " events exceeds the frame limit"));
      continue;
    }
    send_frame(*i.client,
               encode_result(i.request_id, ResultKind::Query, body));
    queries_out_.inc();
  }
}

void Server::send_frame(ClientState& client, std::vector<std::uint8_t> frame) {
  if (client.unsent() == 0) {
    client.out = std::move(frame);
    client.sent = 0;
    client.last_progress = Clock::now();
  } else {
    client.out.insert(client.out.end(), frame.begin(), frame.end());
  }
  flush_output(client);
}

void Server::flush_output(ClientState& client) {
  while (client.unsent() > 0) {
    const ssize_t n = ::send(client.fd, client.out.data() + client.sent,
                             client.unsent(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) drop(client);
      return;
    }
    client.sent += static_cast<std::size_t>(n);
    client.last_progress = Clock::now();
  }
  client.out = {};  // release a large result's buffer once it is sent
  client.sent = 0;
}

void Server::drop(ClientState& client) {
  client.input_closed = true;
  pending_total_ -= client.queue.size();
  client.queue.clear();
  client.out = {};
  client.sent = 0;
}

void Server::reap(Clock::time_point now) {
  for (auto it = clients_.begin(); it != clients_.end();) {
    const ClientState& client = it->second;
    const bool finished = client.input_closed && client.queue.empty() &&
                          client.unsent() == 0;
    const bool stuck = draining_ && client.unsent() > 0 &&
                       now - client.last_progress >= kDrainGrace;
    if (!finished && !stuck) {
      ++it;
      continue;
    }
    const auto pos = std::find(rr_order_.begin(), rr_order_.end(), it->first);
    const auto index = static_cast<std::size_t>(pos - rr_order_.begin());
    rr_order_.erase(pos);
    if (rr_next_ > index) --rr_next_;
    ::close(client.fd);
    disconnects_.inc();
    it = clients_.erase(it);
  }
}

}  // namespace poolnet::server
