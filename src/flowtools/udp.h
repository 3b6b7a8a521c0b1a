// UDP transport for NetFlow export (the live half of Figure 9).
//
// "A NetFlow enabled router will periodically send datagrams to a
// pre-designated receiver node" -- and the testbed multiplexes emulated
// border routers by destination UDP port. This module provides the two
// endpoints: a sender that fires export datagrams at localhost ports, and
// a receiver set that binds one socket per emulated Peer AS / BR and
// feeds everything it hears into a FlowCapture, tagging each datagram
// with its arrival port.
//
// Loopback-only by design: the reproduction never needs to leave the
// machine, and binding 127.0.0.1 keeps the test suite hermetic.

#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "flowtools/capture.h"
#include "util/result.h"

namespace infilter::flowtools {

/// Sends datagrams to 127.0.0.1:<port>.
class UdpSender {
 public:
  static util::Result<UdpSender> create();
  ~UdpSender();
  UdpSender(UdpSender&& other) noexcept;
  UdpSender& operator=(UdpSender&& other) = delete;
  UdpSender(const UdpSender&) = delete;
  UdpSender& operator=(const UdpSender&) = delete;

  /// Sends one datagram; fails on socket errors (never partial).
  util::Result<bool> send(std::uint16_t port, std::span<const std::uint8_t> datagram);

 private:
  explicit UdpSender(int fd) : fd_(fd) {}
  int fd_ = -1;
};

/// Outcome of one UdpReceiver::receive_into() call. Distinguishes "a
/// datagram arrived" from "nothing was waiting" explicitly, so a
/// zero-length datagram -- legal UDP -- is not conflated with an empty
/// socket the way receive()'s empty-vector convention conflates them.
struct ReceivedDatagram {
  /// True when a datagram was consumed from the socket (possibly empty or
  /// truncated); false when the socket had nothing waiting.
  bool datagram = false;
  /// Bytes copied into the caller's buffer.
  std::size_t bytes = 0;
  /// Actual length of the datagram on the wire (MSG_TRUNC); greater than
  /// `bytes` when the caller's buffer was too small and the tail was cut.
  std::size_t wire_bytes = 0;

  [[nodiscard]] bool truncated() const { return wire_bytes > bytes; }
};

/// One bound, non-blocking UDP receive socket.
class UdpReceiver {
 public:
  /// Binds 127.0.0.1:<port>; port 0 picks an ephemeral port.
  /// `rcvbuf_bytes` > 0 requests that much kernel receive buffering
  /// (SO_RCVBUF); 0 keeps the system default.
  static util::Result<UdpReceiver> bind(std::uint16_t port, int rcvbuf_bytes = 0);
  ~UdpReceiver();
  UdpReceiver(UdpReceiver&& other) noexcept;
  UdpReceiver& operator=(UdpReceiver&& other) = delete;
  UdpReceiver(const UdpReceiver&) = delete;
  UdpReceiver& operator=(const UdpReceiver&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// Receives one pending datagram without blocking; an empty vector means
  /// nothing was waiting. Allocates per call -- hot paths should use
  /// receive_into(), which this wraps (and which can also tell a
  /// zero-length datagram apart from an idle socket).
  util::Result<std::vector<std::uint8_t>> receive();

  /// Receives one pending datagram into caller-owned storage without
  /// blocking or allocating. Retries internally on EINTR; errors are real
  /// socket failures only.
  util::Result<ReceivedDatagram> receive_into(std::span<std::uint8_t> buffer);

  [[nodiscard]] int fd() const { return fd_; }

 private:
  UdpReceiver(int fd, std::uint16_t port) : fd_(fd), port_(port) {}
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Binds one receiver per collector port and pumps arriving export
/// datagrams into a FlowCapture (Figure 9's flow-tools node).
class LiveCollector {
 public:
  /// Binds every port in `ports` (0 entries pick ephemeral ports; read the
  /// final assignments from ports()). `rcvbuf_bytes` is forwarded to every
  /// socket (0 = system default).
  static util::Result<LiveCollector> bind(const std::vector<std::uint16_t>& ports,
                                          int rcvbuf_bytes = 0);

  [[nodiscard]] std::vector<std::uint16_t> ports() const;

  /// Waits up to `timeout_ms` for traffic and ingests every datagram that
  /// arrived. Returns the number of flow records stored by this call.
  /// When one receiver fails mid-sweep the remaining sockets are still
  /// drained; the first error is reported after the sweep completes.
  util::Result<std::size_t> poll_once(int timeout_ms);

  /// Polls until `flow_target` flows have been captured or `deadline_ms`
  /// of wall-clock time elapses (steady_clock -- a slow trickle of traffic
  /// cannot stretch the deadline). Returns the flows captured by this call.
  util::Result<std::size_t> collect(std::size_t flow_target, int deadline_ms);

  [[nodiscard]] const flowtools::FlowCapture& capture() const { return capture_; }
  [[nodiscard]] flowtools::FlowCapture& capture() { return capture_; }

 private:
  explicit LiveCollector(std::vector<UdpReceiver> receivers);
  std::vector<UdpReceiver> receivers_;
  flowtools::FlowCapture capture_;
  /// Reused receive buffer: one 64 KiB allocation for the collector's
  /// lifetime instead of one per datagram.
  std::vector<std::uint8_t> scratch_;
};

}  // namespace infilter::flowtools
