#ifndef WSQ_NET_SOCKET_H_
#define WSQ_NET_SOCKET_H_

#include <string>

#include "wsq/common/status.h"
#include "wsq/net/frame.h"

namespace wsq::net {

/// Thin RAII wrapper over a TCP socket fd implementing the framing
/// layer's ByteStream with poll-based deadlines. Moves like unique_ptr;
/// closing an invalid socket is a no-op. Not thread-safe, with one
/// deliberate exception: Shutdown() may be called from another thread to
/// wake a blocked reader (the server uses it to tear down live
/// connections on Stop()).
class Socket final : public ByteStream {
 public:
  Socket() = default;
  /// Takes ownership of `fd` (which must be a connected or listening
  /// socket, or -1).
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() override;

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept;
  Socket& operator=(Socket&& other) noexcept;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Closes the fd (graceful FIN path).
  void Close();

  /// Abortive close: SO_LINGER 0, so the peer sees an RST — the live
  /// analogue of the fault layer's connection-reset kind.
  void CloseHard();

  /// shutdown(2) both directions without closing the fd; any blocked
  /// read on another thread returns immediately. Safe cross-thread.
  void Shutdown();

  /// Per-operation deadline for ReadSome/WriteSome; <= 0 (the default)
  /// blocks indefinitely. Deadline expiry surfaces as kUnavailable.
  void set_io_timeout_ms(double ms) { io_timeout_ms_ = ms; }
  double io_timeout_ms() const { return io_timeout_ms_; }

  /// True when the peer has closed its end (a zero-byte peek succeeds).
  /// Used by the server to avoid dispatching work for an exchange the
  /// client already abandoned.
  bool PeerClosed() const;

  Result<size_t> ReadSome(void* buf, size_t len) override;
  Result<size_t> WriteSome(const void* buf, size_t len) override;

 private:
  int fd_ = -1;
  double io_timeout_ms_ = -1.0;
};

/// Connects to host:port (numeric IPv4 or a resolvable name) within
/// `timeout_ms`. kUnavailable on refusal/timeout — connection failures
/// are transient on the live path.
Result<Socket> TcpConnect(const std::string& host, int port,
                          double timeout_ms);

/// Binds (SO_REUSEADDR) and listens on `port`; 0 picks an ephemeral
/// port — read it back with LocalPort. The accept queue is as deep as
/// the kernel allows (SOMAXCONN, clamped to net.core.somaxconn), so a
/// connection storm waits in the queue instead of being dropped.
Result<Socket> TcpListen(int port);

/// The locally bound port of a listening or connected socket.
Result<int> LocalPort(const Socket& socket);

/// The remote peer's IP address ("127.0.0.1", "::1", ...) of a
/// connected socket — the admission layer's rate-limit key.
Result<std::string> PeerIp(const Socket& socket);

/// Toggles O_NONBLOCK on `fd`. The event-loop server runs every
/// accepted connection (and the listener itself) non-blocking; clients
/// keep the default blocking mode with poll-based deadlines.
void SetNonBlocking(int fd, bool enable);

/// Waits up to `timeout_ms` for a connection on `listener` (<= 0 polls
/// without blocking). kUnavailable when none arrived in time or the
/// listener was shut down.
Result<Socket> Accept(Socket& listener, double timeout_ms);

}  // namespace wsq::net

#endif  // WSQ_NET_SOCKET_H_
