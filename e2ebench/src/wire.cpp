#include "wire.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <strings.h>
#include <stdexcept>

namespace bench {

const JValue* JValue::get(const std::string& key) const {
  for (const auto& [k, v] : members) {
    if (k == key) return &v;
  }
  return nullptr;
}

double JValue::num(const std::string& key, double fallback) const {
  const JValue* v = get(key);
  return v && v->type == Type::Number ? v->number : fallback;
}

std::string JValue::str(const std::string& key) const {
  const JValue* v = get(key);
  return v && v->type == Type::String ? v->string : std::string();
}

namespace {

class Reader {
 public:
  explicit Reader(const std::string& s) : s_(s) {}

  JValue value() {
    skip();
    if (i_ >= s_.size()) fail("unexpected end");
    JValue v;
    const char c = s_[i_];
    if (c == '{') {
      v.type = JValue::Type::Object;
      ++i_;
      skip();
      if (peek('}')) return ++i_, v;
      for (;;) {
        skip();
        std::string key = string();
        skip();
        expect(':');
        v.members.emplace_back(std::move(key), value());
        skip();
        if (peek(',')) {
          ++i_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = JValue::Type::Array;
      ++i_;
      skip();
      if (peek(']')) return ++i_, v;
      for (;;) {
        v.items.push_back(value());
        skip();
        if (peek(',')) {
          ++i_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JValue::Type::String;
      v.string = string();
      return v;
    }
    if (s_.compare(i_, 4, "true") == 0 || s_.compare(i_, 5, "false") == 0) {
      v.type = JValue::Type::Bool;
      v.boolean = s_[i_] == 't';
      i_ += v.boolean ? 4 : 5;
      return v;
    }
    if (s_.compare(i_, 4, "null") == 0) {
      i_ += 4;
      return v;
    }
    const char* begin = s_.c_str() + i_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin || (c != '-' && (c < '0' || c > '9'))) fail("bad value");
    v.type = JValue::Type::Number;
    i_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  void finish() {
    skip();
    if (i_ != s_.size()) fail("trailing characters");
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error(std::string("json: ") + what + " at byte " +
                             std::to_string(i_));
  }
  void skip() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\n' ||
                              s_[i_] == '\r' || s_[i_] == '\t')) {
      ++i_;
    }
  }
  bool peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void expect(char c) {
    if (!peek(c)) fail("unexpected character");
    ++i_;
  }
  std::string string() {
    expect('"');
    std::string out;
    while (i_ < s_.size() && s_[i_] != '"') {
      char c = s_[i_++];
      if (c == '\\') {
        if (i_ >= s_.size()) fail("bad escape");
        c = s_[i_++];
        switch (c) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case 'b': c = '\b'; break;
          case 'f': c = '\f'; break;
          case 'u': {
            // The program only escapes control characters this way.
            c = static_cast<char>(std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16));
            i_ += 4;
            break;
          }
          default: break;  // '"', '\\', '/'
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  const std::string& s_;
  std::size_t i_ = 0;
};

}  // namespace

JValue parse_json(const std::string& text) {
  Reader r(text);
  JValue v = r.value();
  r.finish();
  return v;
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out + "\"";
}

HttpConnection::HttpConnection(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd_);
    throw std::runtime_error(std::string("connect failed: ") + std::strerror(errno));
  }
}

HttpConnection::~HttpConnection() {
  if (fd_ >= 0) ::close(fd_);
}

int HttpConnection::request(const std::string& method, const std::string& path,
                            const std::string& body,
                            std::string* response_body) {
  const std::string out = method + " " + path +
                          " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                          "Content-Type: application/json\r\n"
                          "Content-Length: " + std::to_string(body.size()) +
                          "\r\nConnection: keep-alive\r\n\r\n" + body;
  for (std::size_t sent = 0; sent < out.size();) {
    const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) throw std::runtime_error("send failed");
    sent += static_cast<std::size_t>(n);
  }
  char chunk[65536];
  const auto fill = [&] {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) throw std::runtime_error("connection closed");
    buffer_.append(chunk, static_cast<std::size_t>(n));
  };
  std::size_t head_end;
  while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) fill();
  const std::string head = buffer_.substr(0, head_end);
  const std::size_t sp = head.find(' ');
  if (sp == std::string::npos) throw std::runtime_error("bad status line");
  const int status = std::atoi(head.c_str() + sp + 1);
  std::size_t length = 0;
  for (std::size_t at = 0; (at = head.find("\r\n", at)) != std::string::npos;) {
    at += 2;
    if (strncasecmp(head.c_str() + at, "content-length:", 15) == 0) {
      length = std::strtoull(head.c_str() + at + 15, nullptr, 10);
    }
  }
  while (buffer_.size() < head_end + 4 + length) fill();
  response_body->assign(buffer_, head_end + 4, length);
  buffer_.erase(0, head_end + 4 + length);
  return status;
}

}  // namespace bench
