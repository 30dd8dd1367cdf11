// A self-contained HTTP/1.1 front-end for the analysis service.
//
// Deliberately minimal — blocking sockets, one thread per connection with
// keep-alive, no external dependencies — because the workload shape is a
// modest number of long-lived client connections each streaming many
// small JSON requests (the loadgen and any reasonable RPC client pool
// reuse connections). The interesting serving machinery — coalescing,
// admission control, deadline scheduling — lives above, in SolveService;
// this layer only guarantees that arbitrary bytes from the network become
// either a well-formed HttpRequest or a structured 4xx, never a crash,
// and that shutdown drains in-flight handlers before closing sockets.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>

#include <thread>

namespace fta::service {

struct HttpRequest {
  std::string method;  ///< Upper-case verb as sent ("GET", "POST", ...).
  std::string path;    ///< Request target, query string included.
  std::string body;
};

struct HttpResponse {
  int status = 200;
  std::string body;
  std::string content_type = "application/json";
  bool close_connection = false;  ///< Force Connection: close.
};

/// Standard reason phrase for the handful of statuses the service emits.
const char* http_status_reason(int status) noexcept;

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

struct HttpServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = ephemeral; the bound port is reported by port().
  std::uint16_t port = 0;
  /// Connections beyond this are answered 503 and closed immediately —
  /// the server itself must stay responsive at any offered load.
  std::size_t max_connections = 256;
  std::size_t max_body_bytes = std::size_t{8} << 20;
  std::size_t max_header_bytes = std::size_t{64} << 10;
  /// Bound on waiting for in-flight handlers at shutdown.
  double drain_timeout_seconds = 30.0;
};

struct HttpServerCounters {
  std::uint64_t accepted = 0;
  std::uint64_t over_capacity = 0;  ///< Connections shed with a 503.
  std::uint64_t requests = 0;
  std::uint64_t parse_errors = 0;   ///< Malformed requests answered 4xx.
};

class HttpServer {
 public:
  /// Binds and starts accepting immediately; throws std::runtime_error
  /// when the socket cannot be bound.
  HttpServer(HttpServerOptions opts, HttpHandler handler);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// The actual bound port (resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Graceful shutdown: stop accepting, let handlers already running
  /// finish and write their responses (bounded by drain_timeout_seconds),
  /// then close every connection and join. Idempotent.
  void shutdown();

  bool stopping() const noexcept {
    return stopping_.load(std::memory_order_relaxed);
  }

  HttpServerCounters counters() const;

 private:
  void accept_loop(int listen_fd);
  void serve_connection(int fd);
  /// One request/response exchange; false ends the connection.
  bool serve_one(int fd, std::string& buffer);
  bool send_all(int fd, const std::string& data);
  void send_response(int fd, const HttpResponse& response, bool keep_alive);

  HttpServerOptions opts_;
  HttpHandler handler_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;

  std::atomic<bool> stopping_{false};
  std::thread acceptor_;

  std::mutex conn_mutex_;
  std::condition_variable conn_cv_;
  std::unordered_set<int> conn_fds_;   ///< Open connection sockets.
  std::size_t live_threads_ = 0;       ///< Detached handler threads alive.
  std::size_t busy_handlers_ = 0;      ///< Threads inside handler_().

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> over_capacity_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
};

}  // namespace fta::service
