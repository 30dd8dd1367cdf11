// A small strict JSON reader for service request bodies.
//
// The serving layer accepts untrusted bytes, so the parser is defensive
// by construction: recursion is depth-capped, numbers parse through
// strtod without locale surprises, escapes are validated (including
// \uXXXX surrogate pairs), and any trailing garbage after the document is
// an error. Failures throw JsonError with a byte offset — the HTTP layer
// turns that into a structured 400, never a crash.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fta::util {

class JsonError : public std::runtime_error {
 public:
  JsonError(std::size_t offset, const std::string& message)
      : std::runtime_error("json: " + message + " (at byte " +
                           std::to_string(offset) + ")"),
        offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

/// The JSON tokenizer under JsonValue::parse, for readers that walk a
/// document without a JsonValue per node. A value starts with value(),
/// whose first character says what follows: '{' and '[' open a container
/// (open, then key for objects and next after each member), '"' a string,
/// 't', 'f' and 'n' a literal, anything else a number. Every method
/// throws JsonError at the offending byte.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text, std::size_t max_depth = 64)
      : text_(text), max_depth_(max_depth) {}

  /// Starts a value nested `depth` containers deep: checks the depth,
  /// skips whitespace and returns the value's first character.
  char value(std::size_t depth);

  /// Consumes the '{' or '[' at hand; false when the container is empty.
  bool open();
  /// After a member or item: true when another follows, false after the
  /// container's closing '}' or ']' (`close`).
  bool next(char close);
  /// A member's key, with its ':' consumed. The view is into the document,
  /// or into `scratch` when the key had escapes.
  std::string_view key(std::string& scratch);

  /// A string value; the view is as for key().
  std::string_view string(std::string& scratch);
  /// A number value, read as strtod reads it.
  double number();
  /// Consumes `word` ("true", "false" or "null").
  void literal(std::string_view word);
  /// Skips one value of any kind nested `depth` containers deep.
  void skip(std::size_t depth);
  /// Fails unless only whitespace remains.
  void finish();

  /// Byte offset of the next unread character.
  std::size_t offset() const noexcept { return pos_; }
  [[noreturn]] void fail(const std::string& message) const {
    throw JsonError(pos_, message);
  }

 private:
  bool eof() const noexcept { return pos_ >= text_.size(); }
  char peek() const { return text_[pos_]; }
  void skip_ws();
  std::uint32_t hex4();
  std::string_view number_text();

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t max_depth_;
  std::string scratch_;  ///< skip()'s strings.
};

class JsonValue {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  /// Parses one JSON document; throws JsonError on any defect.
  /// `max_depth` bounds array/object nesting.
  static JsonValue parse(std::string_view text, std::size_t max_depth = 64);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::Null; }
  bool is_bool() const noexcept { return type_ == Type::Bool; }
  bool is_number() const noexcept { return type_ == Type::Number; }
  bool is_string() const noexcept { return type_ == Type::String; }
  bool is_array() const noexcept { return type_ == Type::Array; }
  bool is_object() const noexcept { return type_ == Type::Object; }

  bool as_bool() const { return expect(Type::Bool), bool_; }
  double as_number() const { return expect(Type::Number), number_; }
  const std::string& as_string() const { return expect(Type::String), str_; }
  const std::vector<JsonValue>& items() const {
    return expect(Type::Array), arr_;
  }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return expect(Type::Object), obj_;
  }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* find(std::string_view key) const noexcept;

  // Typed member getters with defaults (objects only; wrong-typed members
  // throw so schema defects surface as 400s, not silent fallbacks).
  std::string get_string(std::string_view key,
                         const std::string& fallback) const;
  double get_number(std::string_view key, double fallback) const;
  bool get_bool(std::string_view key, bool fallback) const;

  static JsonValue make_null() { return JsonValue(); }

 private:
  /// One value of `reader`, nested `depth` containers deep.
  static JsonValue parse_value(JsonReader& reader, std::size_t depth,
                               std::string& scratch);

  void expect(Type t) const {
    if (type_ != t) throw JsonError(0, "unexpected value type");
  }

  Type type_ = Type::Null;
  bool bool_ = false;
  double number_ = 0.0;
  std::string str_;
  std::vector<JsonValue> arr_;
  std::vector<std::pair<std::string, JsonValue>> obj_;
};

}  // namespace fta::util
