// Minimal RAII wrapper over IPv4 UDP sockets — enough to run the digital
// fountain server and client over real datagrams (the loopback example) the
// way the paper's prototype ran over IP multicast UDP. It speaks unicast
// only; the examples run over loopback.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/symbols.hpp"

namespace fountain::net {

struct Endpoint {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

class UdpSocket {
 public:
  UdpSocket();
  ~UdpSocket();

  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Binds to host:port (port 0 picks an ephemeral port).
  void bind(const Endpoint& local);
  /// The locally bound port (after bind).
  std::uint16_t local_port() const;

  /// Retries transparently on EINTR; throws on any other send failure.
  void send_to(const Endpoint& peer, util::ConstByteSpan payload);

  struct Datagram {
    std::vector<std::uint8_t> payload;
    Endpoint from;
    /// The datagram on the wire was longer than the receive buffer and the
    /// kernel cut it short (MSG_TRUNC). `payload` holds only the prefix —
    /// a distinct outcome from a short datagram, so framing code can reject
    /// it instead of parsing a silently truncated packet as complete.
    bool truncated = false;
  };
  /// Blocks up to `timeout`; returns std::nullopt on timeout. Interrupted
  /// system calls (EINTR) are retried against the original deadline, so a
  /// signal can neither abort the wait nor extend it. `max_payload` bounds
  /// the bytes kept; longer datagrams come back with truncated = true. The
  /// datagram lands in a stack buffer first, so only its own bytes are
  /// allocated.
  std::optional<Datagram> receive(std::chrono::milliseconds timeout,
                                  std::size_t max_payload = 65536);

  /// Datagrams the kernel dropped at this socket, nearly always because its
  /// receive queue was full: the per-socket form of BSD's udps_fullsock
  /// (Linux SO_RXQ_OVFL). The kernel stamps its cumulative count on each
  /// datagram it queues, so drops() covers the drops before the last
  /// datagram receive() returned; drops after it show once the next one is
  /// queued and read.
  std::uint64_t drops() const { return drops_; }

 private:
  int fd_ = -1;
  std::uint64_t drops_ = 0;
  std::uint32_t drop_stamp_ = 0;  // the kernel's 32-bit count, last seen
};

}  // namespace fountain::net
