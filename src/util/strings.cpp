#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cmath>

namespace fta::util {

std::string_view trim(std::string_view s) noexcept {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && delims.find(s[i]) != std::string_view::npos) ++i;
    std::size_t j = i;
    while (j < s.size() && delims.find(s[j]) == std::string_view::npos) ++j;
    if (j > i) out.push_back(s.substr(i, j - i));
    i = j;
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) noexcept {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (auto& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

void append_json_escaped(std::string& out, std::string_view s) {
  std::size_t run = 0;  // start of the pending span that needs no escape
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 15]};
        out.append(u, sizeof u);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 8);
  append_json_escaped(out, s);
  return out;
}

namespace {

/// `v` as printf's %.12g writes it, which std::to_chars's general format
/// with precision 12 is defined to match.
std::string_view format_g12(double v, char (&buf)[32]) {
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::general, 12);
  return {buf, static_cast<std::size_t>(r.ptr - buf)};
}

}  // namespace

std::string format_double(double v) {
  char buf[32];
  return std::string(format_g12(v, buf));
}

void append_json_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[32];
  out += format_g12(v, buf);
}

std::string json_number(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

}  // namespace fta::util
