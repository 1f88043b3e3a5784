#include "net/udp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace fountain::net {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

sockaddr_in to_sockaddr(const Endpoint& ep) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep.port);
  if (inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
    throw std::invalid_argument("UdpSocket: bad IPv4 address: " + ep.host);
  }
  return addr;
}

Endpoint from_sockaddr(const sockaddr_in& addr) {
  char buf[INET_ADDRSTRLEN] = {};
  inet_ntop(AF_INET, &addr.sin_addr, buf, sizeof(buf));
  return Endpoint{buf, ntohs(addr.sin_port)};
}

}  // namespace

UdpSocket::UdpSocket() {
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) throw_errno("socket");
  const int on = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &on, sizeof(on));
  ::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &on, sizeof(on));
}

UdpSocket::~UdpSocket() {
  if (fd_ >= 0) ::close(fd_);
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      drops_(std::exchange(other.drops_, 0)),
      drop_stamp_(std::exchange(other.drop_stamp_, 0)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = std::exchange(other.fd_, -1);
    drops_ = std::exchange(other.drops_, 0);
    drop_stamp_ = std::exchange(other.drop_stamp_, 0);
  }
  return *this;
}

void UdpSocket::bind(const Endpoint& local) {
  const sockaddr_in addr = to_sockaddr(local);
  if (::bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    throw_errno("bind");
  }
}

std::uint16_t UdpSocket::local_port() const {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

void UdpSocket::send_to(const Endpoint& peer, util::ConstByteSpan payload) {
  const sockaddr_in addr = to_sockaddr(peer);
  ssize_t sent;
  do {
    sent = ::sendto(fd_, payload.data(), payload.size(), 0,
                    reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (sent < 0 && errno == EINTR);
  if (sent < 0) throw_errno("sendto");
  if (static_cast<std::size_t>(sent) != payload.size()) {
    throw std::runtime_error("UdpSocket: short send");
  }
}

std::optional<UdpSocket::Datagram> UdpSocket::receive(
    std::chrono::milliseconds timeout, std::size_t max_payload) {
  // Poll against an absolute deadline so EINTR restarts wait only the
  // remaining time instead of the full timeout again.
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd pfd{fd_, POLLIN, 0};
    const int ready =
        ::poll(&pfd, 1, static_cast<int>(std::max<long long>(left.count(), 0)));
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (ready == 0) return std::nullopt;
    break;
  }

  // No IPv4 UDP datagram carries more than 65507 bytes, so this buffer holds
  // any of them whole; left uninitialised, it costs nothing per call.
  std::array<std::uint8_t, 65536> buf;
  iovec iov{buf.data(), std::min(max_payload, buf.size())};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint32_t))];
  sockaddr_in addr{};
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  ssize_t got;
  do {
    msg.msg_namelen = sizeof(addr);  // recvmsg rewrites both lengths
    msg.msg_controllen = sizeof(control);
    // MSG_TRUNC makes recvmsg return the datagram's true wire length even
    // when it exceeds the buffer, which is how truncation becomes visible.
    got = ::recvmsg(fd_, &msg, MSG_TRUNC);
  } while (got < 0 && errno == EINTR);
  if (got < 0) throw_errno("recvmsg");
  for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr;
       c = CMSG_NXTHDR(&msg, c)) {
    if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
      // Cumulative and 32-bit: add the difference, so a wrap of the
      // kernel's counter is not a wrap of drops().
      std::uint32_t stamp;
      std::memcpy(&stamp, CMSG_DATA(c), sizeof(stamp));
      drops_ += static_cast<std::uint32_t>(stamp - drop_stamp_);
      drop_stamp_ = stamp;
    }
  }
  const auto kept = std::min(static_cast<std::size_t>(got), iov.iov_len);
  return Datagram{std::vector<std::uint8_t>(buf.data(), buf.data() + kept),
                  from_sockaddr(addr),
                  static_cast<std::size_t>(got) > iov.iov_len};
}

}  // namespace fountain::net
