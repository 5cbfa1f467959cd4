#include "src/net/socket.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>

namespace klink {
namespace {

std::string Errno(const char* what) {
  // strerror's static buffer is fine here: error formatting happens on
  // the one thread that owns the failing socket.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

StatusOr<int> ListenTcp(uint16_t port, uint16_t* bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    CloseFd(fd);
    return Status::Internal(Errno("bind"));
  }
  if (::listen(fd, SOMAXCONN) != 0) {
    CloseFd(fd);
    return Status::Internal(Errno("listen"));
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    CloseFd(fd);
    return s;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound;
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      CloseFd(fd);
      return Status::Internal(Errno("getsockname"));
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

StatusOr<int> ConnectTcp(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseFd(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    CloseFd(fd);
    return Status::Internal(Errno("connect"));
  }
  SetNoDelay(fd);
  return fd;
}

StatusOr<int> AcceptNonBlocking(int listen_fd) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) {
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return -1;
    return Status::Internal(Errno("accept"));
  }
  if (Status s = SetNonBlocking(fd); !s.ok()) {
    CloseFd(fd);
    return s;
  }
  SetNoDelay(fd);
  return fd;
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    return Status::Internal(Errno("fcntl(O_NONBLOCK)"));
  }
  return Status::Ok();
}

void SetNoDelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Status SendAll(int fd, const uint8_t* data, size_t len) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

namespace {

StatusOr<int64_t> ReadSomeFlags(int fd, uint8_t* buf, size_t len,
                                int flags) {
  while (true) {
    const ssize_t n = ::recv(fd, buf, len, flags);
    if (n >= 0) return static_cast<int64_t>(n);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return int64_t{-1};
    return Status::Internal(Errno("recv"));
  }
}

}  // namespace

StatusOr<int64_t> ReadSome(int fd, uint8_t* buf, size_t len) {
  return ReadSomeFlags(fd, buf, len, 0);
}

StatusOr<int64_t> ReadSomeNonBlocking(int fd, uint8_t* buf, size_t len) {
  return ReadSomeFlags(fd, buf, len, MSG_DONTWAIT);
}

void CloseFd(int fd) {
  if (fd >= 0) ::close(fd);
}

int64_t WallMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             // klink-lint: allow(determinism): stall/idle timers, replay pacing, real-time serving
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace klink
