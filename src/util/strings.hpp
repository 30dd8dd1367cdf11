// Small string helpers shared by parsers and report printers.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace fta::util {

/// Strips leading and trailing ASCII whitespace.
std::string_view trim(std::string_view s) noexcept;

/// Splits on any of the characters in `delims`, dropping empty pieces.
std::vector<std::string_view> split(std::string_view s,
                                    std::string_view delims = " \t");

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix) noexcept;

/// Lower-cases ASCII characters.
std::string to_lower(std::string_view s);

/// Appends `s` escaped for embedding into a JSON string literal: `"`,
/// `\\` and control characters become escapes; nothing else changes.
void append_json_escaped(std::string& out, std::string_view s);

/// Escapes a string for embedding into a JSON document.
std::string json_escape(std::string_view s);

/// Formats a double as printf's `%.12g` does (12 significant digits,
/// trailing zeros trimmed).
std::string format_double(double v);

/// Appends a double as a JSON number: format_double for finite values,
/// `null` for infinities and NaN, which JSON cannot represent (a
/// probability-0 cut has log cost +inf).
void append_json_number(std::string& out, double v);

/// append_json_number into a new string.
std::string json_number(double v);

}  // namespace fta::util
