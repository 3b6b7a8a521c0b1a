#include "flowtools/udp.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <optional>

namespace infilter::flowtools {
namespace {

util::Error errno_error(const char* what) {
  return util::Error{std::string(what) + ": " + std::strerror(errno)};
}

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(port);
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return address;
}

}  // namespace

util::Result<UdpSender> UdpSender::create() {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return errno_error("socket");
  return UdpSender{fd};
}

UdpSender::~UdpSender() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSender::UdpSender(UdpSender&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

util::Result<bool> UdpSender::send(std::uint16_t port,
                                   std::span<const std::uint8_t> datagram) {
  const auto address = loopback(port);
  const auto sent = ::sendto(fd_, datagram.data(), datagram.size(), 0,
                             reinterpret_cast<const sockaddr*>(&address),
                             sizeof address);
  if (sent < 0) return errno_error("sendto");
  if (static_cast<std::size_t>(sent) != datagram.size()) {
    return util::Error{"short datagram send"};
  }
  return true;
}

util::Result<UdpReceiver> UdpReceiver::bind(std::uint16_t port, int rcvbuf_bytes) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return errno_error("socket");
  if (rcvbuf_bytes > 0 &&
      ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes,
                   sizeof rcvbuf_bytes) < 0) {
    ::close(fd);
    return errno_error("setsockopt(SO_RCVBUF)");
  }
  const auto address = loopback(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof address) < 0) {
    ::close(fd);
    return errno_error("bind");
  }
  // Read back the assigned port (meaningful when port was 0).
  sockaddr_in bound{};
  socklen_t length = sizeof bound;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &length) < 0) {
    ::close(fd);
    return errno_error("getsockname");
  }
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    ::close(fd);
    return errno_error("fcntl");
  }
  return UdpReceiver{fd, ntohs(bound.sin_port)};
}

UdpReceiver::~UdpReceiver() {
  if (fd_ >= 0) ::close(fd_);
}

UdpReceiver::UdpReceiver(UdpReceiver&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
}

util::Result<ReceivedDatagram> UdpReceiver::receive_into(
    std::span<std::uint8_t> buffer) {
  for (;;) {
    // MSG_TRUNC reports the wire length even when the buffer was too
    // small, which is how callers detect (and count) truncated datagrams.
    const auto received =
        ::recv(fd_, buffer.data(), buffer.size(), MSG_TRUNC);
    if (received >= 0) {
      ReceivedDatagram out;
      out.datagram = true;
      out.wire_bytes = static_cast<std::size_t>(received);
      out.bytes = std::min(out.wire_bytes, buffer.size());
      return out;
    }
    if (errno == EINTR) continue;  // interrupted by a signal: retry, not an error
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReceivedDatagram{};
    return errno_error("recv");
  }
}

util::Result<std::vector<std::uint8_t>> UdpReceiver::receive() {
  std::vector<std::uint8_t> buffer(65536);
  const auto received = receive_into(buffer);
  if (!received) return received.error();
  // Legacy convention: empty vector for both "nothing waiting" and a
  // zero-length datagram. Callers who care use receive_into().
  buffer.resize(received->datagram ? received->bytes : 0);
  return buffer;
}

LiveCollector::LiveCollector(std::vector<UdpReceiver> receivers)
    : receivers_(std::move(receivers)), scratch_(65536) {}

util::Result<LiveCollector> LiveCollector::bind(const std::vector<std::uint16_t>& ports,
                                                int rcvbuf_bytes) {
  std::vector<UdpReceiver> receivers;
  receivers.reserve(ports.size());
  for (const auto port : ports) {
    auto receiver = UdpReceiver::bind(port, rcvbuf_bytes);
    if (!receiver) return receiver.error();
    receivers.push_back(std::move(*receiver));
  }
  return LiveCollector{std::move(receivers)};
}

std::vector<std::uint16_t> LiveCollector::ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(receivers_.size());
  for (const auto& receiver : receivers_) out.push_back(receiver.port());
  return out;
}

util::Result<std::size_t> LiveCollector::poll_once(int timeout_ms) {
  std::vector<pollfd> fds;
  fds.reserve(receivers_.size());
  for (const auto& receiver : receivers_) {
    fds.push_back(pollfd{receiver.fd(), POLLIN, 0});
  }
  int ready;
  do {
    ready = ::poll(fds.data(), fds.size(), timeout_ms);
  } while (ready < 0 && errno == EINTR);
  if (ready < 0) return errno_error("poll");
  if (ready == 0) return std::size_t{0};

  // One failing socket must not starve the others: finish the sweep, then
  // report the first error.
  std::optional<util::Error> first_error;
  std::size_t stored = 0;
  for (std::size_t i = 0; i < receivers_.size(); ++i) {
    if ((fds[i].revents & POLLIN) == 0) continue;
    // Drain everything queued on this socket.
    while (true) {
      const auto received = receivers_[i].receive_into(scratch_);
      if (!received) {
        if (!first_error) first_error = received.error();
        break;
      }
      if (!received->datagram) break;
      // A datagram arrived -- zero-length or truncated ones included. Both
      // decode as malformed, which the capture counts; dropping them is
      // collector policy, not an I/O error, and must not stop the drain.
      const auto ingested = capture_.ingest(
          std::span(scratch_.data(), received->bytes), receivers_[i].port());
      if (ingested) stored += *ingested;
    }
  }
  // Everything drained from the healthy sockets is already in capture_;
  // only now surface the failure.
  if (first_error) return *first_error;
  return stored;
}

util::Result<std::size_t> LiveCollector::collect(std::size_t flow_target,
                                                 int deadline_ms) {
  // Wall-clock deadline: the old idle-slice accounting let a slow trickle
  // of traffic (one datagram per slice) run arbitrarily past deadline_ms.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  std::size_t collected = 0;
  while (collected < flow_target &&
         std::chrono::steady_clock::now() < deadline) {
    constexpr int kSliceMs = 20;
    auto stored = poll_once(kSliceMs);
    if (!stored) return stored.error();
    collected += *stored;
  }
  return collected;
}

}  // namespace infilter::flowtools
