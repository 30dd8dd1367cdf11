// Text format for fault trees (Galileo-inspired).
//
//   // Fire protection system
//   toplevel FPS;
//   FPS or DETECTION SUPPRESSION;
//   DETECTION and x1 x2;
//   TRIGGER 2of3 a b c;          // voting gate
//   x1 prob=0.2;
//
// Statements end with ';'. '//' and '#' start comments. Gates may be
// declared before or after their children; events default to probability 0
// unless a `prob=` statement provides one. Names may be quoted with double
// quotes to include spaces. The grammar is a subset of Galileo's, and the
// Galileo reader (format/galileo) reads it.
#pragma once

#include <stdexcept>
#include <string>

#include "ft/fault_tree.hpp"

namespace fta::ft {

class ParseError : public std::runtime_error {
 public:
  ParseError(std::size_t line, const std::string& message)
      : std::runtime_error("line " + std::to_string(line) + ": " + message),
        line_(line) {}
  std::size_t line() const noexcept { return line_; }

 private:
  std::size_t line_;
};

/// Parses a fault-tree document with the Galileo reader; the result is
/// validated. Every defect throws ParseError with its line.
FaultTree parse_fault_tree(const std::string& text);

/// Serialises a tree back to the text format: format::to_galileo, whose
/// events come first in EventIndex order with round-trip probabilities, so
/// parsing the text restores the tree's EventIndex order and every
/// probability bit for bit.
std::string to_text(const FaultTree& tree);

}  // namespace fta::ft
