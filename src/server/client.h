// Blocking poolnetd client: connects, writes request frames, reads reply
// frames. Used by bench/server_load, the CI smoke script and the server
// tests; real deployments would speak the wire protocol directly
// (docs/wire_protocol.md).
//
// One Client is one connection and is NOT thread-safe; load generators
// run one Client per worker. Requests may be pipelined: send any number
// of statements, then collect replies with read_reply() — the server
// answers admission rejections immediately and admitted statements when
// their epoch executes, so pipelined replies can arrive out of send
// order. Match them by request_id.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "server/wire.h"
#include "storage/event.h"

namespace poolnet::server {

/// An ERROR frame surfaced by a convenience round-trip helper.
struct RemoteError : std::runtime_error {
  RemoteError(ErrorCode c, const std::string& msg)
      : std::runtime_error(msg), code(c) {}
  ErrorCode code;
};

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port; throws ConfigError on failure.
  void connect(const std::string& host, std::uint16_t port);
  void close();
  bool connected() const { return fd_ >= 0; }
  /// The connected socket (-1 when closed), e.g. to read socket options.
  int native_handle() const { return fd_; }

  /// One decoded reply frame (RESULT or ERROR).
  struct Reply {
    std::uint64_t request_id = 0;
    bool is_error = false;
    ResultKind kind = ResultKind::Query;  ///< valid when !is_error
    std::vector<std::uint8_t> body;       ///< RESULT payload past the header
    ErrorCode code = ErrorCode::ParseError;  ///< valid when is_error
    std::string message;                     ///< valid when is_error
  };

  /// Fire-and-return sends (pipelining building blocks); each returns the
  /// request_id it assigned. Throws std::runtime_error on a dead socket.
  std::uint64_t send_query(const std::string& statement);
  std::uint64_t send_insert(const std::string& statement);
  std::uint64_t send_subscribe_metrics();

  /// Blocks for the next reply frame. Throws std::runtime_error on EOF
  /// or a corrupt stream.
  Reply read_reply();

  /// Round-trip SELECT: sends, awaits the matching reply, decodes the
  /// events. Throws RemoteError on an ERROR reply.
  std::vector<storage::Event> query(const std::string& statement);

  /// Round-trip INSERT: returns the node the event was stored at.
  std::uint32_t insert(const std::string& statement);

  /// Round-trip SUBSCRIBE_METRICS: returns the JSON snapshot text.
  std::string subscribe_metrics();

 private:
  std::uint64_t send_frame(FrameType type, const std::string& statement);
  Reply await(std::uint64_t request_id);

  int fd_ = -1;
  std::uint64_t next_request_id_ = 1;
  FrameDecoder decoder_;
};

}  // namespace poolnet::server
