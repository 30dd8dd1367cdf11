// Standard-format corpus ingestion: one facade over every fault-tree
// interchange format the system speaks.
//
// Formats:
//   * Galileo DFT (`.dft`, `.ft`) — the de-facto textual format of the
//     DFT benchmark collections (Galileo/FFORT/MaxSAT Evaluation 2020):
//     `toplevel "X";`, gate statements (`and`, `or`, `KofN` votes), basic
//     events with `prob=` or `lambda=` (exponential rates converted at a
//     configurable mission time). Dynamic gates (pand, spare, fdep, seq)
//     are *rejected* with a structured diagnostic naming the gate — this
//     library analyses static fault trees.
//   * Open-PSA MEF XML (`.xml`, `.opsa`, `.mef`) — the interchange subset
//     in format/openpsa (`define-fault-tree`, `define-gate` with
//     and/or/atleast, `define-basic-event` floats).
//   * JSON (`.json`) — the tree document of ft::to_json (Fig. 2 of the
//     paper): `{"top": ..., "nodes": [{"id", "type", "prob", "k",
//     "children"}]}`.
//
// Every parse failure — syntax, schema or semantic — surfaces as
// format::ParseError carrying the format name and a 1-based line/column
// position, so batch CLIs and the HTTP layer can report structured
// diagnostics instead of opaque strings. The serializers emit
// probabilities with round-trip (17 significant digit) precision:
// serialize -> parse reproduces the tree bit-exactly
// (ft::structural_equal with probabilities).
#pragma once

#include <stdexcept>
#include <string>

#include "ft/fault_tree.hpp"

namespace fta::format {

enum class TreeFormat : std::uint8_t {
  Auto,     ///< Sniff: '<' => OpenPsa, '{' => Json, else Galileo.
  Json,     ///< ft::to_json tree document.
  Galileo,  ///< Galileo DFT text (superset of the native .ft grammar).
  OpenPsa,  ///< Open-PSA MEF XML subset.
};

const char* format_name(TreeFormat f) noexcept;

/// Parses "auto" | "json" | "galileo" | "openpsa" (case-insensitive;
/// "open-psa" accepted). Returns false on unknown names.
bool parse_format_name(const std::string& name, TreeFormat* out) noexcept;

/// Structured parse diagnostic: which format rejected the document, where
/// (1-based line/column; 0 = position unknown at that axis) and why.
/// what() renders "<format>: line L, column C: <detail>".
class ParseError : public std::runtime_error {
 public:
  ParseError(TreeFormat format, std::size_t line, std::size_t column,
             const std::string& detail);

  TreeFormat format() const noexcept { return format_; }
  std::size_t line() const noexcept { return line_; }
  std::size_t column() const noexcept { return column_; }
  const std::string& detail() const noexcept { return detail_; }

 private:
  TreeFormat format_;
  std::size_t line_;
  std::size_t column_;
  std::string detail_;
};

struct ParseOptions {
  TreeFormat format = TreeFormat::Auto;
  /// Mission time horizon for Galileo `lambda=` rates:
  /// p = 1 - exp(-lambda * mission_time).
  double mission_time = 1.0;
};

/// Format from the filename extension (.dft/.ft => Galileo, .xml/.opsa/
/// .mef => OpenPsa, .json => Json), falling back to content sniffing:
/// a document starting with '<' is Open-PSA, with '{' JSON, else Galileo.
TreeFormat detect_format(const std::string& filename,
                         const std::string& content) noexcept;

/// Parses `text` into a validated fault tree. With Auto, the format is
/// detected from `filename` (may be empty) and the content. Every
/// failure throws format::ParseError — no other exception type escapes.
ft::FaultTree parse_tree(const std::string& text,
                         const ParseOptions& opts = {},
                         const std::string& filename = "");

// --- serializers (round-trip precision) ---------------------------------

/// Canonical Galileo DFT: quoted names, gates top-down, `prob=` with
/// 17-significant-digit probabilities. parse_tree(to_galileo(t)) is
/// structurally identical to t including probabilities. Throws as
/// check_galileo_names does on a name it cannot write.
std::string to_galileo(const ft::FaultTree& tree);

/// Throws std::invalid_argument naming the first node whose name holds a
/// double quote or a line feed: a quoted Galileo name cannot hold either,
/// and the format has no escape. The JSON and Open-PSA readers accept
/// such names; whatever keeps trees as Galileo text (the service journal)
/// must refuse them up front.
void check_galileo_names(const ft::FaultTree& tree);

/// Open-PSA MEF with round-trip float precision: the top gate first, the
/// other gates in depth-first order, then model-data in EventIndex order.
std::string to_open_psa(const ft::FaultTree& tree,
                        const std::string& tree_name = "fault-tree");

/// The ft::to_json tree document (no solution block).
std::string to_json(const ft::FaultTree& tree);

/// Serialize in any concrete format (Auto is rejected).
std::string serialize_tree(const ft::FaultTree& tree, TreeFormat format);

/// Formats a double with enough digits to round-trip bit-exactly.
std::string format_probability(double p);

}  // namespace fta::format
