#include "ft/parser.hpp"

#include "format/format.hpp"
#include "format/galileo.hpp"

namespace fta::ft {

FaultTree parse_fault_tree(const std::string& text) {
  try {
    return format::parse_galileo(text);
  } catch (const format::ParseError& e) {
    throw ParseError(e.line(), e.detail());
  }
}

std::string to_text(const FaultTree& tree) { return format::to_galileo(tree); }

}  // namespace fta::ft
