#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/error.h"

namespace poolnet::server {

Client::~Client() { close(); }

void Client::connect(const std::string& host, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0)
    throw ConfigError("Client: socket() failed: " +
                      std::string(std::strerror(errno)));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close();
    throw ConfigError("Client: bad address " + host);
  }
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string why = std::strerror(errno);
    close();
    throw ConfigError("Client: cannot connect to " + host + ":" +
                      std::to_string(port) + ": " + why);
  }
  // Requests are small frames; send each at once instead of waiting for
  // the previous one's ACK (Nagle).
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t Client::send_frame(FrameType type, const std::string& statement) {
  const std::uint64_t id = next_request_id_++;
  const std::vector<std::uint8_t> frame = encode_request(type, id, statement);
  const std::uint8_t* p = frame.data();
  std::size_t left = frame.size();
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("Client: send failed: " +
                               std::string(std::strerror(errno)));
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return id;
}

std::uint64_t Client::send_query(const std::string& statement) {
  return send_frame(FrameType::Query, statement);
}

std::uint64_t Client::send_insert(const std::string& statement) {
  return send_frame(FrameType::Insert, statement);
}

std::uint64_t Client::send_subscribe_metrics() {
  return send_frame(FrameType::SubscribeMetrics, "");
}

Client::Reply Client::read_reply() {
  Frame frame;
  while (!decoder_.next(&frame)) {
    if (decoder_.corrupt())
      throw std::runtime_error("Client: corrupt reply stream");
    std::uint8_t buf[4096];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0)
      throw std::runtime_error("Client: connection closed by server");
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }

  Reply reply;
  PayloadReader r(frame.payload);
  reply.request_id = r.u64();
  if (frame.type == FrameType::Result) {
    reply.is_error = false;
    reply.kind = static_cast<ResultKind>(r.u8());
    reply.body.assign(frame.payload.begin() +
                          static_cast<std::ptrdiff_t>(frame.payload.size() -
                                                      r.remaining()),
                      frame.payload.end());
  } else if (frame.type == FrameType::Error) {
    reply.is_error = true;
    reply.code = static_cast<ErrorCode>(r.u16());
    reply.message = r.rest_text();
  } else {
    throw std::runtime_error("Client: unexpected frame type " +
                             std::to_string(static_cast<int>(frame.type)));
  }
  if (!r.ok()) throw std::runtime_error("Client: short reply frame");
  return reply;
}

Client::Reply Client::await(std::uint64_t request_id) {
  // Single-request round-trip: the next reply must be ours (the server
  // answers one connection's statements in order of disposition).
  Reply reply = read_reply();
  if (reply.request_id != request_id)
    throw std::runtime_error("Client: reply for request " +
                             std::to_string(reply.request_id) +
                             ", expected " + std::to_string(request_id));
  if (reply.is_error) throw RemoteError(reply.code, reply.message);
  return reply;
}

std::vector<storage::Event> Client::query(const std::string& statement) {
  const Reply reply = await(send_query(statement));
  std::vector<storage::Event> events;
  if (!decode_events(reply.body, &events))
    throw std::runtime_error("Client: malformed event set in reply");
  return events;
}

std::uint32_t Client::insert(const std::string& statement) {
  const Reply reply = await(send_insert(statement));
  PayloadReader r(reply.body);
  const std::uint32_t stored_at = r.u32();
  if (!r.ok()) throw std::runtime_error("Client: malformed insert reply");
  return stored_at;
}

std::string Client::subscribe_metrics() {
  const Reply reply = await(send_subscribe_metrics());
  PayloadReader r(reply.body);
  return r.rest_text();
}

}  // namespace poolnet::server
