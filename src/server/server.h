// poolnetd's core: a TCP query server over the batched QueryEngine.
//
// One event loop (DESIGN.md §12): start() spawns a single thread that
// owns the non-blocking listener, every client's non-blocking socket,
// frame decoder, admission queue and outbound byte buffer, the Backend
// (Testbed + DcsSystem + QueryEngine are single-threaded by design), the
// epoch fill and every server.* metric. It waits in ppoll, so the
// registry can be scraped live (SUBSCRIBE_METRICS) without violating the
// scrape discipline, and responses for one connection are never
// interleaved.
//
// Writes never block: a reply frame is appended to its client's buffer
// and flushed when the socket is writable. Read-side backpressure: a
// socket is not read while its client has unsent output, so a client
// that stops reading stops being read, and its buffer holds at most the
// results of the statements it already had admitted (plus the replies to
// one read's worth of frames). Other clients are served meanwhile.
//
// Admission control: a client may have at most max_inflight_per_client
// statements queued, and the server at most max_pending_global across
// all clients; beyond either bound the statement is REJECTED with a
// typed ERROR frame immediately — the server never queues unboundedly.
//
// Fairness: the epoch fill takes queries round-robin ACROSS clients (one
// per client per turn), so a chatty client cannot monopolize an epoch
// ahead of others no matter how deep its queue is.
//
// Shutdown: stop() wakes the loop through a self-pipe. The loop closes
// the listener, stops reading every connection, executes every admitted
// query and flushes its result, then closes each session; a session that
// accepts no bytes for kDrainGrace is closed with its output unsent, so
// stop() returns even with a stuck peer.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "server/backend.h"
#include "server/wire.h"

namespace poolnet::server {

struct ServerConfig {
  BackendConfig backend;

  /// Listen address. Port 0 binds an ephemeral port; read it back with
  /// port() after start().
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;

  /// Admission control (see file header). Zero is not a valid limit.
  std::size_t max_inflight_per_client = 16;
  std::size_t max_pending_global = 1024;

  /// A partial epoch flushes after this long with no new input.
  /// Wall-clock, unlike the engine's logical batch_deadline (which the
  /// server pins to "never" — epoch timing is the server's job here).
  std::uint64_t flush_interval_us = 2000;
};

/// Counter view assembled from the registry (server.* namespace); read
/// after stop() or from the loop thread.
struct ServerStats {
  std::uint64_t connections = 0;   ///< sessions accepted, lifetime
  std::uint64_t disconnects = 0;   ///< sessions fully closed
  std::uint64_t queries_in = 0;    ///< SELECTs admitted
  std::uint64_t queries_out = 0;   ///< RESULT frames queued for queries
  std::uint64_t inserts = 0;       ///< INSERTs applied
  std::uint64_t rejected = 0;      ///< admission-control ERRORs
  std::uint64_t parse_errors = 0;  ///< statement/frame ERRORs
  std::uint64_t epochs = 0;        ///< epoch executions (incl. partial)
};

class Server {
 public:
  /// At drain, a session whose peer accepts no bytes for this long is
  /// closed with its remaining output dropped.
  static constexpr std::chrono::seconds kDrainGrace{2};

  explicit Server(ServerConfig config);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens and spawns the loop thread. Throws ConfigError when
  /// the address cannot be bound.
  void start();

  /// The bound port (valid after start()).
  std::uint16_t port() const { return port_; }

  /// Drains and joins (see file header). Idempotent; the destructor
  /// calls it.
  void stop();

  bool running() const { return running_; }

  Backend& backend() { return *backend_; }
  ServerStats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct PendingQuery {
    std::uint64_t request_id = 0;
    storage::QueryRequest query;
  };

  struct ClientState {
    int fd = -1;
    FrameDecoder decoder;
    std::deque<PendingQuery> queue;  ///< admitted, not yet executed
    /// Reply bytes not yet accepted by the socket; out[sent..] is unsent.
    std::vector<std::uint8_t> out;
    std::size_t sent = 0;
    Clock::time_point last_progress;  ///< last time the peer took bytes
    /// No more statements are read (EOF, a bad frame, a socket error, or
    /// drain). Admitted queries still get answers; the session closes
    /// once its queue and output are empty.
    bool input_closed = false;

    std::size_t unsent() const { return out.size() - sent; }
  };

  void loop();
  void accept_clients();
  /// One recv: feeds the decoder and dispatches every whole frame.
  void read_client(ClientState& client);
  void dispatch(ClientState& client, const Frame& frame);
  void handle_query(ClientState& client, std::uint64_t request_id,
                    const std::string& text);
  void handle_insert(ClientState& client, std::uint64_t request_id,
                     const std::string& text);
  void handle_metrics(ClientState& client, std::uint64_t request_id);
  void bad_frame(ClientState& client, std::uint64_t request_id);

  /// Executes one epoch: fills up to epoch_size_ queries round-robin
  /// across clients, runs them as one engine batch, and queues every
  /// RESULT frame (or a ResultTooLarge ERROR).
  void run_epoch();

  /// Queues a whole frame for the client, writing what the socket takes
  /// right away when nothing is queued ahead of it.
  void send_frame(ClientState& client, std::vector<std::uint8_t> frame);
  /// Writes queued output until the socket would block.
  void flush_output(ClientState& client);
  /// Forgets what a failed session was owed, so the next reap closes it.
  void drop(ClientState& client);
  /// Closes every session that is finished, or (at drain) stuck past
  /// kDrainGrace.
  void reap(Clock::time_point now);

  ServerConfig config_;
  std::unique_ptr<Backend> backend_;
  std::size_t epoch_size_ = 1;

  int listen_fd_ = -1;
  int wake_fds_[2] = {-1, -1};  ///< self-pipe: stop() writes, loop polls
  std::uint16_t port_ = 0;
  bool running_ = false;
  std::thread loop_thread_;

  // --- loop-thread state (no locks; one owner) ---
  std::map<std::uint64_t, ClientState> clients_;
  std::uint64_t next_client_id_ = 1;
  std::vector<std::uint64_t> rr_order_;  ///< round-robin client ring
  std::size_t rr_next_ = 0;
  std::size_t pending_total_ = 0;
  Clock::time_point last_input_;
  bool draining_ = false;
  std::uint64_t next_event_id_ = 0;

  obs::MetricsRegistry::Counter connections_, disconnects_, queries_in_,
      queries_out_, inserts_, rejected_, parse_errors_, epochs_;
  obs::MetricsRegistry::Histogram occupancy_;
};

}  // namespace poolnet::server
