#include "service/http_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>

#include "util/strings.hpp"

namespace fta::service {

namespace {

/// Pre-rendered response for connections shed before a thread is spawned.
const char kOverCapacityResponse[] =
    "HTTP/1.1 503 Service Unavailable\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: 55\r\n"
    "Connection: close\r\n"
    "\r\n"
    "{\"ok\": false, \"code\": \"over_capacity\", \"error\": \"busy\"}";

struct ParsedHead {
  std::string method;
  std::string path;
  bool http_11 = true;
  bool keep_alive = true;
  bool expect_continue = false;
  bool chunked = false;
  long long content_length = 0;
  bool bad = false;
  std::string error;
};

ParsedHead parse_head(std::string_view head) {
  ParsedHead p;
  const auto fail = [&](const char* why) {
    p.bad = true;
    p.error = why;
    return p;
  };
  const std::size_t line_end = head.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  const std::size_t sp1 = request_line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return fail("malformed request line");
  }
  p.method = std::string(request_line.substr(0, sp1));
  p.path = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  const std::string_view version = request_line.substr(sp2 + 1);
  if (version == "HTTP/1.1") {
    p.http_11 = true;
  } else if (version == "HTTP/1.0") {
    p.http_11 = false;
    p.keep_alive = false;
  } else {
    return fail("unsupported HTTP version");
  }
  if (p.method.empty() || p.path.empty() || p.path[0] != '/') {
    return fail("malformed request line");
  }

  std::size_t pos = line_end == std::string_view::npos ? head.size()
                                                       : line_end + 2;
  while (pos < head.size()) {
    std::size_t next = head.find("\r\n", pos);
    if (next == std::string_view::npos) next = head.size();
    const std::string_view line = head.substr(pos, next - pos);
    pos = next + 2;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return fail("malformed header");
    const std::string name = util::to_lower(util::trim(line.substr(0, colon)));
    const std::string_view value = util::trim(line.substr(colon + 1));
    if (name == "content-length") {
      char* end = nullptr;
      const std::string value_s(value);
      errno = 0;
      const long long n = std::strtoll(value_s.c_str(), &end, 10);
      if (errno != 0 || end == value_s.c_str() || *end != '\0' || n < 0) {
        return fail("invalid Content-Length");
      }
      p.content_length = n;
    } else if (name == "connection") {
      const std::string v = util::to_lower(value);
      if (v == "close") p.keep_alive = false;
      if (v == "keep-alive") p.keep_alive = true;
    } else if (name == "expect") {
      if (util::to_lower(value) == "100-continue") p.expect_continue = true;
    } else if (name == "transfer-encoding") {
      p.chunked = true;  // anything but identity is unsupported
    }
  }
  return p;
}

}  // namespace

const char* http_status_reason(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Status";
  }
}

HttpServer::HttpServer(HttpServerOptions opts, HttpHandler handler)
    : opts_(std::move(opts)), handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(opts_.port);
  if (::inet_pton(AF_INET, opts_.bind_address.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw std::runtime_error("invalid bind address " + opts_.bind_address);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) !=
      0) {
    const int err = errno;
    ::close(listen_fd_);
    throw std::runtime_error("bind(" + opts_.bind_address + ":" +
                             std::to_string(opts_.port) +
                             ") failed: " + std::strerror(err));
  }
  if (::listen(listen_fd_, 256) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error("listen() failed");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  // The acceptor gets the descriptor by value: shutdown() resets
  // listen_fd_ under conn_mutex_, which the accept loop does not hold.
  acceptor_ = std::thread([this, fd = listen_fd_] { accept_loop(fd); });
}

HttpServer::~HttpServer() { shutdown(); }

HttpServerCounters HttpServer::counters() const {
  HttpServerCounters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.over_capacity = over_capacity_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.parse_errors = parse_errors_.load(std::memory_order_relaxed);
  return c;
}

void HttpServer::shutdown() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // Second caller: still wait for the drain below to finish.
  }
  // Stop accepting; the acceptor unblocks when the fd closes.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }
  if (acceptor_.joinable()) acceptor_.join();

  // Drain: handlers already running get to finish and write their
  // responses; idle connections see stopping_ at their next read timeout
  // and close themselves.
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration<double>(opts_.drain_timeout_seconds);
  {
    std::unique_lock<std::mutex> lock(conn_mutex_);
    conn_cv_.wait_until(lock, deadline, [this] { return busy_handlers_ == 0; });
    // Force-close whatever is left (idle keep-alive connections, readers
    // mid-request, or handlers past the drain budget).
    for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_cv_.wait_until(lock, deadline + std::chrono::seconds(5),
                        [this] { return live_threads_ == 0; });
  }
}

void HttpServer::accept_loop(int listen_fd) {
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by shutdown()
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);

    bool admit = false;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (!stopping_.load(std::memory_order_relaxed) &&
          conn_fds_.size() < opts_.max_connections) {
        conn_fds_.insert(fd);
        ++live_threads_;
        admit = true;
      }
    }
    if (!admit) {
      // Shed at the door: the server must answer (not hang) at any
      // offered connection load.
      over_capacity_.fetch_add(1, std::memory_order_relaxed);
      ::send(fd, kOverCapacityResponse, sizeof kOverCapacityResponse - 1,
             MSG_NOSIGNAL);
      ::close(fd);
      continue;
    }

    std::thread([this, fd] {
      serve_connection(fd);
      std::lock_guard<std::mutex> lock(conn_mutex_);
      conn_fds_.erase(fd);
      ::close(fd);
      --live_threads_;
      conn_cv_.notify_all();
    }).detach();
  }
}

void HttpServer::serve_connection(int fd) {
  // Short receive timeout so idle connections poll stopping_ regularly.
  timeval tv{};
  tv.tv_usec = 200 * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  std::string buffer;
  while (serve_one(fd, buffer)) {
  }
}

bool HttpServer::send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

void HttpServer::send_response(int fd, const HttpResponse& response,
                               bool keep_alive) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    http_status_reason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  out += "\r\n";
  out += response.body;
  send_all(fd, out);
}

bool HttpServer::serve_one(int fd, std::string& buffer) {
  // --- read the head ----------------------------------------------------
  std::size_t head_end;
  while ((head_end = buffer.find("\r\n\r\n")) == std::string::npos) {
    if (buffer.size() > opts_.max_header_bytes) {
      parse_errors_.fetch_add(1, std::memory_order_relaxed);
      send_response(fd,
                    {431,
                     R"({"ok": false, "code": "bad_request", )"
                     R"("error": "headers too large"})",
                     "application/json", true},
                    false);
      return false;
    }
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return false;  // clean EOF between requests
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
        // Idle poll: bail out once the server is draining and no request
        // is in progress on this connection.
        if (stopping_.load(std::memory_order_relaxed) && buffer.empty()) {
          return false;
        }
        continue;
      }
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  ParsedHead head = parse_head(std::string_view(buffer).substr(0, head_end));
  if (head.bad) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    send_response(fd,
                  {400,
                   R"({"ok": false, "code": "bad_request", "error": ")" +
                       util::json_escape(head.error) + "\"}",
                   "application/json", true},
                  false);
    return false;
  }
  if (head.chunked) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    send_response(fd,
                  {501,
                   R"({"ok": false, "code": "bad_request", )"
                   R"("error": "chunked bodies are not supported"})",
                   "application/json", true},
                  false);
    return false;
  }
  if (static_cast<std::size_t>(head.content_length) > opts_.max_body_bytes) {
    parse_errors_.fetch_add(1, std::memory_order_relaxed);
    send_response(fd,
                  {413,
                   R"({"ok": false, "code": "bad_request", )"
                   R"("error": "body too large"})",
                   "application/json", true},
                  false);
    return false;  // close instead of draining an oversized body
  }
  if (head.expect_continue) {
    if (!send_all(fd, "HTTP/1.1 100 Continue\r\n\r\n")) return false;
  }

  // --- read the body ----------------------------------------------------
  const std::size_t total =
      head_end + 4 + static_cast<std::size_t>(head.content_length);
  while (buffer.size() < total) {
    char chunk[16384];
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n == 0) return false;  // truncated body: peer went away
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }

  HttpRequest request;
  request.method = std::move(head.method);
  request.path = std::move(head.path);
  request.body = buffer.substr(head_end + 4,
                               static_cast<std::size_t>(head.content_length));
  buffer.erase(0, total);  // keep any pipelined follow-up bytes

  // --- dispatch ---------------------------------------------------------
  requests_.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    ++busy_handlers_;
  }
  HttpResponse response;
  try {
    response = handler_(request);
  } catch (const std::exception& e) {
    response.status = 500;
    response.body = R"({"ok": false, "code": "internal", "error": ")" +
                    util::json_escape(e.what()) + "\"}";
  } catch (...) {
    response.status = 500;
    response.body = R"({"ok": false, "code": "internal", "error": "unknown"})";
  }
  const bool keep_alive = head.keep_alive && !response.close_connection &&
                          !stopping_.load(std::memory_order_relaxed);
  send_response(fd, response, keep_alive);
  // Busy until the response is written: shutdown() force-closes every
  // connection once no handler is busy, which must not cut this one off.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    --busy_handlers_;
    conn_cv_.notify_all();
  }
  return keep_alive;
}

}  // namespace fta::service
