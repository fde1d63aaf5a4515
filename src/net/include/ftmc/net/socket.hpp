/// \file socket.hpp
/// \brief Framed TCP transport shared by ftmc_serve and ftmc::fleet:
///        EINTR-hardened socket helpers, a framed client with connect
///        and read timeouts, and a generic framed request/response
///        server.
///
/// The transport policy that both subsystems inherit:
///  - every socket loop retries EINTR — a signal (SIGCHLD from a fleet
///    worker, a profiler tick) never aborts a healthy stream;
///  - connects and reads carry deadlines, so a hung peer can never
///    wedge a coordinator, a worker, or a client: connect() times out,
///    read_frame() times out, and a server connection that stalls
///    *mid-frame* is dropped after `mid_frame_timeout_ms` (an idle
///    connection between frames may legitimately wait forever);
///  - a malformed frame (oversized length claim) answers one framed
///    {"type":"error"} response and closes the connection — the byte
///    stream is unrecoverable past that point;
///  - a body truncated mid-frame at EOF is counted
///    (<prefix>.truncated_streams) and the connection closed.
///
/// POSIX-only (sockets); the request engines that ride on top
/// (serve::Server, fleet::Coordinator) are portable.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ftmc/net/frame.hpp"

namespace ftmc::net {

/// Thrown when a connect or read deadline expires. Distinct from
/// std::runtime_error so callers can retry timeouts without catching
/// genuine socket failures.
class TimeoutError : public std::runtime_error {
 public:
  explicit TimeoutError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// send() the whole buffer, retrying EINTR; false once the peer is gone.
[[nodiscard]] bool send_all(int fd, std::string_view bytes) noexcept;

/// poll() until `fd` is readable. `timeout_ms` < 0 waits forever; EINTR
/// wakeups retry with the remaining time. Returns false on timeout.
[[nodiscard]] bool wait_readable(int fd, int timeout_ms);

/// Connects to host:port with a deadline (non-blocking connect + poll,
/// EINTR retried). Returns a blocking fd; throws TimeoutError on the
/// deadline and std::runtime_error on refusal/bad address.
[[nodiscard]] int connect_tcp(const std::string& host, std::uint16_t port,
                              int timeout_ms);

/// Client-side knobs (FramedClient).
struct FramedClientOptions {
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  int connect_timeout_ms = 10000;
  /// Ceiling on one read_frame()/call() wait; < 0 waits forever (the
  /// serve load generator runs unbounded analyze batches).
  int read_timeout_ms = -1;
};

/// One framed client connection: blocking call() round trips with the
/// configured deadlines. Fleet workers, the serve load generator and the
/// serve transport tests use it directly.
class FramedClient {
 public:
  /// Connects (throws TimeoutError past the connect deadline,
  /// std::runtime_error on refusal).
  FramedClient(const std::string& host, std::uint16_t port,
               FramedClientOptions options = {});
  ~FramedClient();
  FramedClient(const FramedClient&) = delete;
  FramedClient& operator=(const FramedClient&) = delete;

  /// Frames and sends one request payload, blocks for one framed
  /// response, returns its payload. Throws TimeoutError past the read
  /// deadline, FrameError on a framing violation in the response, and
  /// std::runtime_error on EOF/socket failure.
  [[nodiscard]] std::string call(std::string_view payload);

  /// Sends raw bytes as-is (no framing) — the hook protocol tests use
  /// to inject malformed frames.
  void send_raw(std::string_view bytes);

  /// Blocks for one framed response (shared tail of call()).
  [[nodiscard]] std::string read_response();

 private:
  int fd_ = -1;
  int read_timeout_ms_;
  FrameDecoder decoder_;
};

/// Server-side knobs (FramedServer).
struct FramedServerOptions {
  std::string bind_address = "127.0.0.1";
  /// Port 0 binds an ephemeral port — read the chosen one back with
  /// port() (the pattern tests and CI use).
  std::uint16_t port = 0;
  int backlog = 64;
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// The accept loop wakes at least this often to evaluate the caller's
  /// stop predicate even when no connection arrives.
  int accept_poll_ms = 100;
  /// Blocked connection reads wake at least this often to notice a
  /// stopping listener.
  int idle_poll_ms = 250;
  /// A peer that stalls mid-frame (header sent, body withheld) is
  /// dropped after this long; <= 0 disables the guard. Idle peers
  /// *between* frames are never dropped.
  int mid_frame_timeout_ms = 30000;
  /// Metric-name prefix: <prefix>.connections_total, <prefix>.frames_total,
  /// <prefix>.protocol_errors, <prefix>.truncated_streams,
  /// <prefix>.bytes_in, <prefix>.bytes_out.
  std::string metrics_prefix = "net";
};

/// Generic framed request/response server: one thread per connection,
/// every complete payload handed to the handler and the returned
/// payload framed back. The engine behind serve::TcpServer and the
/// fleet coordinator's listener.
class FramedServer {
 public:
  /// Maps one request payload to one response payload. Called
  /// concurrently from connection threads; must be thread-safe.
  using Handler = std::function<std::string(std::string_view)>;
  /// Optional stop predicate, polled between accepts and after every
  /// handled frame. Returning true drains the listener exactly like
  /// stop().
  using StopPredicate = std::function<bool()>;

  /// Binds and listens (throws std::runtime_error on failure).
  FramedServer(Handler handler, FramedServerOptions options,
               StopPredicate should_stop = {});
  ~FramedServer();
  FramedServer(const FramedServer&) = delete;
  FramedServer& operator=(const FramedServer&) = delete;

  /// The bound port (resolves port 0 to the kernel's choice).
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Runs the accept loop on the calling thread; joins all connection
  /// threads before returning. Destroy the listener only after serve()
  /// has returned (stop() is the cross-thread way to make it return).
  void serve();

  /// Stops the accept loop from another thread or a signal handler
  /// (only async-signal-safe calls). Idempotent.
  void stop() noexcept;

 private:
  /// One connection thread plus its completion flag; finished threads
  /// are reaped (joined) on the next accept so a long-lived daemon does
  /// not accumulate zombie threads. The reaper owns the fd's close:
  /// shutting it down is how a stopping listener wakes a handler
  /// blocked in recv() on an idle connection.
  struct Connection {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    int fd = -1;
  };

  [[nodiscard]] bool stop_requested();
  void handle_connection(int fd, std::atomic<bool>& done);
  void reap_connections(bool join_all);

  Handler handler_;
  FramedServerOptions options_;
  StopPredicate should_stop_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stopping_{false};
  std::mutex mu_;  // guards connections_
  std::vector<Connection> connections_;
};

}  // namespace ftmc::net
