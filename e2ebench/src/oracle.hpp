// Answer oracles that do not trust the program. Every check runs over the
// benchmark's own Model (model.hpp), never over the program's tree.
//
//   * Evaluator        — is the answer a cut set, and does dropping any
//                        member break it (minimality)?
//   * dp_optimum       — the exact optimum on tree-shaped models: OR takes
//                        the cheapest child, AND the sum, k-of-n the k
//                        cheapest children. On shared models the same
//                        recursion gives the cost of a real cut set, hence
//                        an upper bound on the optimum.
//   * dp_top_k         — the k cheapest minimal cut sets of a tree-shaped
//                        model by k-best lists.
//   * Exhaustive       — every minimal cut set of a model with at most
//                        kExhaustiveEvents events, by enumeration.
//   * Step 6           — the probability recomputed as the product of p.
//
// Costs are lexicographic, like the program's Step 3 weighting: first the
// number of p = 0 members (each outweighs every ordinary combination), then
// sum(-ln p) over the rest.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "model.hpp"

namespace bench {

struct Cost {
  std::uint32_t impossible = 0;  ///< Members with p = 0.
  double log = 0.0;              ///< Sum of -ln p over the other members.
  std::uint32_t size = 0;        ///< Members (for the rounding bound).
};

bool cost_less(const Cost& a, const Cost& b);
Cost cost_of(const Model& m, const std::vector<std::uint32_t>& events);

class Evaluator {
 public:
  explicit Evaluator(const Model& m);
  bool is_cut(const std::vector<std::uint32_t>& events) const;
  bool is_minimal_cut(const std::vector<std::uint32_t>& events) const;

 private:
  const Model& m_;
  std::vector<std::uint32_t> order_;
  mutable std::vector<std::uint8_t> value_;
};

Cost dp_optimum(const Model& m);
std::vector<Cost> dp_top_k(const Model& m, std::size_t k);

inline constexpr std::size_t kExhaustiveEvents = 20;

/// All minimal cut sets, cheapest first. Requires at most
/// kExhaustiveEvents reachable events.
struct Exhaustive {
  explicit Exhaustive(const Model& m);
  std::vector<std::vector<std::uint32_t>> mcs;
  std::vector<Cost> costs;  ///< Parallel to `mcs`.
};

/// What the oracles know about one model's optimum.
struct Expected {
  bool exact = false;       ///< `optimum` is the true optimum.
  Cost optimum;             ///< Exact optimum, or an upper bound.
  std::vector<Cost> top;    ///< Exact k cheapest MCS costs (when known).
  bool top_exact = false;
};

/// Runs the oracles that apply: exhaustive search on small models, the
/// DP (exact) on tree-shaped ones, the DP upper bound otherwise.
Expected expect(const Model& m, std::size_t top_k);

/// Checks one MPMCS answer; returns an empty string when it passes, else
/// what is wrong. `scale` is the program's Step 3 weight scale: the
/// answer's cost may exceed the optimum by half a unit per member of
/// either set, divided by the scale.
std::string check_answer(const Model& m, const Evaluator& ev,
                         const Expected& x,
                         const std::vector<std::uint32_t>& cut,
                         double probability, double log_cost, double scale);

/// Checks a top-k sequence (each a minimal cut set, distinct, in cost
/// order, matching the exact k-best costs where they are known).
std::string check_top_k(const Model& m, const Evaluator& ev,
                        const Expected& x,
                        const std::vector<std::vector<std::uint32_t>>& cuts,
                        std::size_t k, double scale);

/// The paper's Fig. 1 answer: MPMCS {x1, x2} with P = 0.02.
std::string check_fig1(const std::vector<std::string>& names,
                       double probability);

}  // namespace bench
