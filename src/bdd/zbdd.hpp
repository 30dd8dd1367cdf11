// Zero-suppressed BDDs representing families of sets, and Rauzy's
// minimal-solutions extraction from a (coherent) BDD.
//
// A ZBDD node (x, hi, lo) represents: {S ∪ {x} : S ∈ hi} ∪ lo. Terminal 0
// is the empty family; terminal 1 is {∅}. The zero-suppression rule
// (hi == 0 collapses to lo) makes sparse set families compact — ideal for
// cut sets, which are tiny compared to the variable count.
//
// Provided operations: union, subsumption-removal ("without": drop from A
// every set that is a superset of some set in B), Rauzy minsol (BDD ->
// family of minimal solutions), counting, enumeration, and the
// maximum-probability set query that makes the BDD-based MPMCS baseline.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "bdd/bdd.hpp"

namespace fta::bdd {

using ZRef = std::uint32_t;
inline constexpr ZRef kEmptyFamily = 0;  ///< No sets at all.
inline constexpr ZRef kUnitFamily = 1;   ///< The family {∅}.

struct ZNode {
  Level level;
  ZRef lo;  ///< Sets not containing the level variable.
  ZRef hi;  ///< Sets containing it (variable stripped).
};

class ZbddManager {
 public:
  explicit ZbddManager(std::uint32_t num_levels);

  std::uint32_t num_levels() const noexcept { return num_levels_; }
  const ZNode& node(ZRef r) const { return nodes_[r]; }
  bool is_terminal(ZRef r) const noexcept { return r <= 1; }

  /// Family containing the single set {level}.
  ZRef singleton(Level level);

  ZRef unite(ZRef a, ZRef b);

  /// Removes from `a` every set that is a superset of (or equal to) some
  /// set in `b`.
  ZRef without(ZRef a, ZRef b);

  /// Rauzy's algorithm: the family of minimal solutions (minimal cut sets
  /// for a fault-tree top event) of a *coherent* function given as a BDD
  /// in the same level order.
  ZRef minsol(BddManager& bdd, BddRef f);

  /// Number of sets in the family (double to tolerate astronomically many).
  double count(ZRef f);

  /// Invokes `cb` for each set (as a vector of levels, ascending) until
  /// all sets are listed or `max_sets` were produced. Returns the number
  /// produced.
  std::size_t enumerate(ZRef f, std::size_t max_sets,
                        const std::function<void(const std::vector<Level>&)>& cb);

  struct BestSet {
    double probability = -1.0;
    std::vector<Level> set;
  };

  /// The member set maximising the product of per-level probabilities —
  /// i.e. the MPMCS when `f` is the minimal-cut-set family — compared in
  /// log space, so products below the double range still rank. nullopt
  /// for the empty family.
  std::optional<BestSet> best_probability(ZRef f,
                                          const std::vector<double>& level_prob);

  std::size_t size(ZRef f) const;

 private:
  ZRef make_node(Level level, ZRef lo, ZRef hi);

  std::uint32_t num_levels_;
  std::vector<ZNode> nodes_;
  std::unordered_map<std::uint64_t, ZRef> unique_;
  std::unordered_map<std::uint64_t, ZRef> union_cache_;
  std::unordered_map<std::uint64_t, ZRef> without_cache_;
  std::unordered_map<BddRef, ZRef> minsol_cache_;
};

}  // namespace fta::bdd
