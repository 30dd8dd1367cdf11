#include "util/json.hpp"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace fta::util {

namespace {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

}  // namespace

void JsonReader::skip_ws() {
  while (!eof()) {
    const char c = peek();
    if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
    ++pos_;
  }
}

char JsonReader::value(std::size_t depth) {
  if (depth > max_depth_) fail("nesting too deep");
  skip_ws();
  if (eof()) fail("unexpected end of document");
  return peek();
}

bool JsonReader::open() {
  const char close = peek() == '{' ? '}' : ']';
  ++pos_;
  skip_ws();
  if (!eof() && peek() == close) {
    ++pos_;
    return false;
  }
  return true;
}

std::string_view JsonReader::key(std::string& scratch) {
  skip_ws();
  if (eof() || peek() != '"') fail("expected object key");
  const std::string_view k = string(scratch);
  skip_ws();
  if (eof() || peek() != ':') fail("expected ':' after key");
  ++pos_;
  return k;
}

bool JsonReader::next(char close) {
  const char* kind = close == '}' ? "object" : "array";
  skip_ws();
  if (eof()) fail(std::string("unterminated ") + kind);
  if (peek() == ',') {
    ++pos_;
    return true;
  }
  if (peek() == close) {
    ++pos_;
    return false;
  }
  fail(std::string("expected ',' or '") + close + "' in " + kind);
}

void JsonReader::literal(std::string_view word) {
  if (text_.substr(pos_, word.size()) != word) fail("invalid literal");
  pos_ += word.size();
}

void JsonReader::finish() {
  skip_ws();
  if (!eof()) fail("trailing characters after document");
}

void JsonReader::skip(std::size_t depth) {
  switch (value(depth)) {
    case '{':
      if (open()) {
        do {
          key(scratch_);
          skip(depth + 1);
        } while (next('}'));
      }
      return;
    case '[':
      if (open()) {
        do {
          skip(depth + 1);
        } while (next(']'));
      }
      return;
    case '"': string(scratch_); return;
    case 't': literal("true"); return;
    case 'f': literal("false"); return;
    case 'n': literal("null"); return;
    default: number_text(); return;
  }
}

std::uint32_t JsonReader::hex4() {
  if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    const char c = text_[pos_++];
    value <<= 4;
    if (c >= '0' && c <= '9') value |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      value |= static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      value |= static_cast<std::uint32_t>(c - 'A' + 10);
    else fail("invalid \\u escape");
  }
  return value;
}

std::string_view JsonReader::string(std::string& scratch) {
  ++pos_;  // '"'
  // Most strings have no escape: hand out a view of the document.
  const std::size_t start = pos_;
  std::size_t i = pos_;
  while (i < text_.size()) {
    const char c = text_[i];
    if (c == '"') {
      pos_ = i + 1;
      return text_.substr(start, i - start);
    }
    if (c == '\\' || static_cast<unsigned char>(c) < 0x20) break;
    ++i;
  }
  scratch.assign(text_.data() + start, i - start);
  pos_ = i;
  while (true) {
    if (eof()) fail("unterminated string");
    const char c = text_[pos_++];
    if (c == '"') return scratch;
    if (static_cast<unsigned char>(c) < 0x20) {
      fail("unescaped control character in string");
    }
    if (c != '\\') {
      scratch.push_back(c);
      continue;
    }
    if (eof()) fail("truncated escape");
    const char e = text_[pos_++];
    switch (e) {
      case '"': scratch.push_back('"'); break;
      case '\\': scratch.push_back('\\'); break;
      case '/': scratch.push_back('/'); break;
      case 'b': scratch.push_back('\b'); break;
      case 'f': scratch.push_back('\f'); break;
      case 'n': scratch.push_back('\n'); break;
      case 'r': scratch.push_back('\r'); break;
      case 't': scratch.push_back('\t'); break;
      case 'u': {
        std::uint32_t cp = hex4();
        if (cp >= 0xD800 && cp <= 0xDBFF) {
          // High surrogate: a low surrogate must follow.
          if (pos_ + 1 >= text_.size() || text_[pos_] != '\\' ||
              text_[pos_ + 1] != 'u') {
            fail("unpaired surrogate");
          }
          pos_ += 2;
          const std::uint32_t low = hex4();
          if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
          cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
        } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
          fail("unpaired surrogate");
        }
        append_utf8(scratch, cp);
        break;
      }
      default: fail("invalid escape");
    }
  }
}

std::string_view JsonReader::number_text() {
  const std::size_t start = pos_;
  if (!eof() && peek() == '-') ++pos_;
  bool digits = false;
  while (!eof() && peek() >= '0' && peek() <= '9') {
    ++pos_;
    digits = true;
  }
  if (!digits) fail("invalid number");
  if (!eof() && peek() == '.') {
    ++pos_;
    bool frac = false;
    while (!eof() && peek() >= '0' && peek() <= '9') {
      ++pos_;
      frac = true;
    }
    if (!frac) fail("invalid number: bare decimal point");
  }
  if (!eof() && (peek() == 'e' || peek() == 'E')) {
    ++pos_;
    if (!eof() && (peek() == '+' || peek() == '-')) ++pos_;
    bool exp = false;
    while (!eof() && peek() >= '0' && peek() <= '9') {
      ++pos_;
      exp = true;
    }
    if (!exp) fail("invalid number: empty exponent");
  }
  return text_.substr(start, pos_ - start);
}

double JsonReader::number() {
  // The slice is a validated JSON number: from_chars reads it as strtod
  // would (both round correctly) unless it is out of range. strtod then
  // gives the subnormal nearest the text, which is kept, or a zero or an
  // infinity, which the text does not denote: those fail at the number,
  // as the Galileo and Open-PSA readers' numbers do.
  const std::size_t start = pos_;
  const std::string_view slice = number_text();
  double v = 0.0;
  const auto [stop, ec] =
      std::from_chars(slice.data(), slice.data() + slice.size(), v);
  if (ec == std::errc() && stop == slice.data() + slice.size()) return v;
  errno = 0;
  v = std::strtod(std::string(slice).c_str(), nullptr);
  if (errno == ERANGE && (v == 0.0 || std::isinf(v))) {
    pos_ = start;
    fail("number out of range: " + std::string(slice));
  }
  return v;
}

JsonValue JsonValue::parse_value(JsonReader& reader, std::size_t depth,
                                 std::string& scratch) {
  JsonValue v;
  switch (reader.value(depth)) {
    case '{':
      v.type_ = Type::Object;
      if (reader.open()) {
        do {
          std::string key(reader.key(scratch));
          v.obj_.emplace_back(std::move(key),
                              parse_value(reader, depth + 1, scratch));
        } while (reader.next('}'));
      }
      return v;
    case '[':
      v.type_ = Type::Array;
      if (reader.open()) {
        do {
          v.arr_.push_back(parse_value(reader, depth + 1, scratch));
        } while (reader.next(']'));
      }
      return v;
    case '"':
      v.type_ = Type::String;
      v.str_ = reader.string(scratch);
      return v;
    case 't':
      reader.literal("true");
      v.type_ = Type::Bool;
      v.bool_ = true;
      return v;
    case 'f':
      reader.literal("false");
      v.type_ = Type::Bool;
      return v;
    case 'n':
      reader.literal("null");
      return v;
    default:
      v.type_ = Type::Number;
      v.number_ = reader.number();
      return v;
  }
}

JsonValue JsonValue::parse(std::string_view text, std::size_t max_depth) {
  JsonReader reader(text, max_depth);
  std::string scratch;
  JsonValue v = parse_value(reader, 0, scratch);
  reader.finish();
  return v;
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::get_string(std::string_view key,
                                  const std::string& fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_string()) {
    throw JsonError(0, "member \"" + std::string(key) + "\" must be a string");
  }
  return v->as_string();
}

double JsonValue::get_number(std::string_view key, double fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_number()) {
    throw JsonError(0, "member \"" + std::string(key) + "\" must be a number");
  }
  return v->as_number();
}

bool JsonValue::get_bool(std::string_view key, bool fallback) const {
  const JsonValue* v = find(key);
  if (v == nullptr || v->is_null()) return fallback;
  if (!v->is_bool()) {
    throw JsonError(0, "member \"" + std::string(key) + "\" must be a bool");
  }
  return v->as_bool();
}

}  // namespace fta::util
