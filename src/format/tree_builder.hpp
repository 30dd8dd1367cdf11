// The one name resolver under the Galileo, Open-PSA and JSON readers.
//
// A reader scans its document once and tells the builder what it finds:
// every name it meets (intern), every basic-event declaration (event) and
// every gate with its inputs (gate), each with the byte offset it sits at.
// Names are interned once as views into the document — or into the
// builder's own storage when the reader had to unescape them — and
// everything else is kept in vectors indexed by the name's dense id.
// build() then hands FaultTree each name once:
//   * basic events first, in the reader's EventOrder;
//   * then the gates, children before parents: the post-order of one
//     iterative depth-first search that starts from each gate in
//     declaration order and visits a gate's inputs last to first. This is
//     the one gate NodeIndex rule of every format.
// Every defect becomes a format::ParseError whose line and column are
// computed from the offending byte offset only when it is raised.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "format/format.hpp"
#include "ft/fault_tree.hpp"
#include "util/name_index.hpp"

namespace fta::format {

/// The value of `text` when all of it is one number as std::stod reads it
/// (decimal or hexadecimal, inf or nan, optional sign and leading space);
/// nullopt otherwise, and when its magnitude overflows a double or
/// underflows to zero. Unlike std::stod, a subnormal value is kept.
std::optional<double> parse_number(std::string_view text);

class TreeBuilder {
 public:
  using Id = std::uint32_t;

  /// Which names become basic events, and in what EventIndex order.
  enum class EventOrder : std::uint8_t {
    /// Every name that is not a gate, in order of first mention (Galileo).
    FirstMention,
    /// Declared events in declaration order, then names only referenced
    /// as inputs, in gate declaration order (Open-PSA).
    DeclaredThenReferenced,
    /// Declared events in declaration order; a name only referenced as
    /// an input is an undefined child (JSON).
    DeclaredOnly,
  };

  TreeBuilder(TreeFormat format, std::string_view text);

  /// The dense id of `name`, first met at byte offset `at`. The view must
  /// outlive build(): a view into the document, or one from keep().
  Id intern(std::string_view name, std::size_t at);

  /// Copies `s` into storage the builder owns and returns a view of it.
  std::string_view keep(std::string_view s);

  std::string_view name(Id id) const { return entries_[id].name; }
  /// True once `id` has an event declaration (even if it is also a gate).
  bool is_event(Id id) const { return entries_[id].event; }
  bool is_gate(Id id) const {
    return entries_[id].type != ft::NodeType::BasicEvent;
  }
  /// Byte offset of the declaration of `id`: its gate's, else its event's,
  /// else its first mention.
  std::size_t declared_at(Id id) const { return entries_[id].at; }

  /// Declares `id` a basic event with probability `p`.
  void event(Id id, double p, std::size_t at);

  /// Declares `id` a gate over `children`; a k-of-n vote when `type` is
  /// Vote. A gate overrides an event declaration of the same name.
  void gate(Id id, ft::NodeType type, std::uint32_t k,
            std::span<const Id> children, std::size_t at);

  /// The validated tree rooted at `top`, which the reader has checked is
  /// declared.
  ft::FaultTree build(Id top, EventOrder order);

  /// Throws format::ParseError positioned at byte offset `at`.
  [[noreturn]] void fail(std::size_t at, const std::string& detail) const;

 private:
  struct Entry {
    std::string_view name;
    std::size_t at = 0;
    double probability = 0.0;
    std::uint32_t first_child = 0;
    std::uint32_t num_children = 0;
    std::uint32_t k = 0;
    ft::NodeType type = ft::NodeType::BasicEvent;  ///< Else a gate.
    bool event = false;
    bool on_path = false;  ///< Grey in build()'s depth-first search.
    ft::NodeIndex node = ft::kNoIndex;
  };

  TreeFormat format_;
  std::string_view text_;
  std::vector<Entry> entries_;
  util::NameIndex names_;  ///< name -> index into entries_
  std::vector<Id> children_;
  std::vector<Id> events_;  ///< Event declarations, in order.
  std::vector<Id> gates_;   ///< Gate declarations, in order.
  std::deque<std::string> kept_;
};

}  // namespace fta::format
