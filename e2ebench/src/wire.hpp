// The benchmark's side of the wire: a minimal JSON reader for response
// bodies and a keep-alive HTTP/1.1 client. Both are the benchmark's own,
// so a change to the program's JSON or HTTP code cannot change how its
// answers are read or how transport time is measured.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace bench {

struct JValue {
  enum class Type : std::uint8_t { Null, Bool, Number, String, Array, Object };
  Type type = Type::Null;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JValue> items;
  std::vector<std::pair<std::string, JValue>> members;

  /// Member by key; nullptr when absent or not an object.
  const JValue* get(const std::string& key) const;
  double num(const std::string& key, double fallback = 0.0) const;
  std::string str(const std::string& key) const;
};

/// Throws std::runtime_error on malformed input.
JValue parse_json(const std::string& text);
std::string json_quote(const std::string& s);

/// One persistent connection to 127.0.0.1:port. Throws std::runtime_error
/// on transport failure.
class HttpConnection {
 public:
  explicit HttpConnection(std::uint16_t port);
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  /// Sends one request and reads the whole response; returns the status.
  int request(const std::string& method, const std::string& path,
              const std::string& body, std::string* response_body);

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace bench
