#include "wsq/net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

namespace wsq::net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

int PollTimeout(double ms) {
  if (ms <= 0) return -1;  // block indefinitely
  return static_cast<int>(std::ceil(ms));
}

/// Waits for `events` readiness on `fd`. Returns 1 when ready, 0 on
/// timeout, -1 on poll failure (errno set). EINTR restarts with the
/// *remaining* deadline, not the full one — a signal storm must not
/// stretch a 100ms read timeout indefinitely, and a caller-observed
/// timeout has to mean the wall-clock deadline actually passed.
int WaitReady(int fd, short events, double timeout_ms) {
  struct pollfd pfd;
  pfd.fd = fd;
  pfd.events = events;
  pfd.revents = 0;
  if (timeout_ms <= 0) {
    for (;;) {
      const int rc = ::poll(&pfd, 1, PollTimeout(timeout_ms));
      if (rc < 0 && errno == EINTR) continue;
      return rc;
    }
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double, std::milli>(timeout_ms);
  for (;;) {
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(
            deadline - std::chrono::steady_clock::now())
            .count();
    if (remaining_ms <= 0) return 0;
    const int rc = ::poll(&pfd, 1, PollTimeout(remaining_ms));
    if (rc < 0 && errno == EINTR) continue;
    return rc;
  }
}

}  // namespace

void SetNonBlocking(int fd, bool enable) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return;
  if (enable) {
    flags |= O_NONBLOCK;
  } else {
    flags &= ~O_NONBLOCK;
  }
  ::fcntl(fd, F_SETFL, flags);
}

Socket::~Socket() { Close(); }

Socket::Socket(Socket&& other) noexcept
    : fd_(other.fd_), io_timeout_ms_(other.io_timeout_ms_) {
  other.fd_ = -1;
}

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    io_timeout_ms_ = other.io_timeout_ms_;
    other.fd_ = -1;
  }
  return *this;
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::CloseHard() {
  if (fd_ >= 0) {
    struct linger lg;
    lg.l_onoff = 1;
    lg.l_linger = 0;
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg));
    ::close(fd_);
    fd_ = -1;
  }
}

void Socket::Shutdown() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
  }
}

bool Socket::PeerClosed() const {
  if (fd_ < 0) return true;
  struct pollfd pfd;
  pfd.fd = fd_;
  pfd.events = POLLIN;
  pfd.revents = 0;
  if (::poll(&pfd, 1, 0) <= 0) return false;  // nothing pending
  if ((pfd.revents & (POLLERR | POLLHUP)) != 0) return true;
  if ((pfd.revents & POLLIN) != 0) {
    char probe;
    const ssize_t n = ::recv(fd_, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
    if (n == 0) return true;                     // orderly shutdown
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
        errno != EINTR) {
      return true;  // reset or other hard error
    }
  }
  return false;
}

Result<size_t> Socket::ReadSome(void* buf, size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("read on a closed socket");
  const int ready = WaitReady(fd_, POLLIN, io_timeout_ms_);
  if (ready < 0) return Status::Internal(Errno("poll"));
  if (ready == 0) return Status::Unavailable("read timed out");
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, len, 0);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == ECONNRESET || errno == EPIPE) {
      return Status::Unavailable(Errno("recv"));
    }
    return Status::Internal(Errno("recv"));
  }
}

Result<size_t> Socket::WriteSome(const void* buf, size_t len) {
  if (fd_ < 0) return Status::FailedPrecondition("write on a closed socket");
  const int ready = WaitReady(fd_, POLLOUT, io_timeout_ms_);
  if (ready < 0) return Status::Internal(Errno("poll"));
  if (ready == 0) return Status::Unavailable("write timed out");
  for (;;) {
    const ssize_t n = ::send(fd_, buf, len, MSG_NOSIGNAL);
    if (n >= 0) return static_cast<size_t>(n);
    if (errno == EINTR) continue;
    if (errno == ECONNRESET || errno == EPIPE) {
      return Status::Unavailable(Errno("send"));
    }
    return Status::Internal(Errno("send"));
  }
}

Result<Socket> TcpConnect(const std::string& host, int port,
                          double timeout_ms) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;

  struct addrinfo* results = nullptr;
  const int rc =
      ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                    &results);
  if (rc != 0) {
    return Status::Unavailable("resolve " + host + ": " +
                               ::gai_strerror(rc));
  }

  Status last = Status::Unavailable("no addresses for " + host);
  for (struct addrinfo* ai = results; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::Internal(Errno("socket"));
      continue;
    }
    // Non-blocking connect so the caller's timeout is honored even when
    // the peer silently drops SYNs.
    SetNonBlocking(fd, true);
    int crc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
    if (crc < 0 && errno == EINPROGRESS) {
      const int ready = WaitReady(fd, POLLOUT, timeout_ms);
      if (ready <= 0) {
        last = ready == 0 ? Status::Unavailable("connect timed out")
                          : Status::Internal(Errno("poll"));
        ::close(fd);
        ::freeaddrinfo(results);
        return last;
      }
      int err = 0;
      socklen_t err_len = sizeof(err);
      ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &err_len);
      crc = err == 0 ? 0 : -1;
      errno = err;
    }
    if (crc != 0) {
      last = Status::Unavailable(Errno("connect to " + host));
      ::close(fd);
      continue;
    }
    SetNonBlocking(fd, false);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::freeaddrinfo(results);
    return Socket(fd);
  }
  ::freeaddrinfo(results);
  return last;
}

Result<Socket> TcpListen(int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(Errno("socket"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status st = Status::Unavailable(
        Errno("bind port " + std::to_string(port)));
    ::close(fd);
    return st;
  }
  if (::listen(fd, SOMAXCONN) < 0) {
    const Status st = Status::Internal(Errno("listen"));
    ::close(fd);
    return st;
  }
  return Socket(fd);
}

Result<int> LocalPort(const Socket& socket) {
  if (!socket.valid()) {
    return Status::FailedPrecondition("socket is not open");
  }
  struct sockaddr_in addr;
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) < 0) {
    return Status::Internal(Errno("getsockname"));
  }
  return static_cast<int>(ntohs(addr.sin_port));
}

Result<std::string> PeerIp(const Socket& socket) {
  if (!socket.valid()) {
    return Status::FailedPrecondition("socket is not open");
  }
  struct sockaddr_storage addr;
  socklen_t addr_len = sizeof(addr);
  if (::getpeername(socket.fd(), reinterpret_cast<struct sockaddr*>(&addr),
                    &addr_len) < 0) {
    return Status::Internal(Errno("getpeername"));
  }
  char buf[INET6_ADDRSTRLEN] = {0};
  const void* src = nullptr;
  if (addr.ss_family == AF_INET) {
    src = &reinterpret_cast<struct sockaddr_in*>(&addr)->sin_addr;
  } else if (addr.ss_family == AF_INET6) {
    src = &reinterpret_cast<struct sockaddr_in6*>(&addr)->sin6_addr;
  } else {
    return Status::InvalidArgument("unsupported address family");
  }
  if (::inet_ntop(addr.ss_family, src, buf, sizeof(buf)) == nullptr) {
    return Status::Internal(Errno("inet_ntop"));
  }
  return std::string(buf);
}

Result<Socket> Accept(Socket& listener, double timeout_ms) {
  if (!listener.valid()) {
    return Status::FailedPrecondition("accept on a closed listener");
  }
  const int ready = WaitReady(listener.fd(), POLLIN, timeout_ms);
  if (ready < 0) return Status::Internal(Errno("poll"));
  if (ready == 0) return Status::Unavailable("no connection within deadline");
  for (;;) {
    const int fd = ::accept(listener.fd(), nullptr, nullptr);
    if (fd >= 0) {
      int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      return Socket(fd);
    }
    if (errno == EINTR) continue;
    // The listener was shut down from another thread, or the pending
    // connection died between poll and accept.
    return Status::Unavailable(Errno("accept"));
  }
}

}  // namespace wsq::net
