// Cardinality and pseudo-Boolean counting encodings over a live solver.
//
// The clause-emitting core lives in logic/cardinality (TotalizerTree),
// shared with the Tseitin transform's cardinality-native vote-gate
// lowering. This layer adapts it to sat::Solver and keeps the MaxSAT
// engines' interfaces:
//
// Totalizer (Bailleux & Boutobza): given input literals l_1..l_n, creates
// output variables o_1..o_n such that the clauses entail
// (#true inputs >= j) -> o_j. Assuming ~o_j therefore constrains the count
// below j. The one-directional form is the standard choice for core-guided
// MaxSAT (OLL) and for upper-bound tightening.
//
// GeneralizedTotalizer: the weighted analogue; each node tracks the set of
// attainable weight sums, with one output variable per distinct sum. Sum
// sets can grow combinatorially for many distinct weights, so construction
// takes a node budget and reports failure instead of exploding.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "logic/cardinality.hpp"
#include "logic/lit.hpp"
#include "sat/solver.hpp"
#include "util/cancel.hpp"

namespace fta::maxsat {

using Weight = std::uint64_t;

/// ClauseSink over a live SAT solver (the logic layer cannot depend on
/// sat/, so the adapter lives here with its consumers).
class SolverClauseSink final : public logic::ClauseSink {
 public:
  explicit SolverClauseSink(sat::Solver& solver) : solver_(&solver) {}
  logic::Var new_var() override { return solver_->new_var(); }
  void add_clause(std::span<const logic::Lit> lits) override {
    solver_->add_clause(lits);
  }

 private:
  sat::Solver* solver_;
};

/// Unweighted incremental totalizer (the ITotalizer of RC2/open-wbo).
///
/// Output variables and their defining clauses are materialised lazily up
/// to the currently requested bound: counting k-out-of-n costs O(n·k)
/// clauses instead of the O(n²) of the full encoding. Core-guided MaxSAT
/// typically needs tiny bounds even over huge cores, which makes this the
/// difference between milliseconds and out-of-memory on wide instances
/// (e.g. trees whose top OR spans a thousand redundant subsystems).
class Totalizer {
 public:
  /// Builds the counting tree and materialises outputs up to
  /// `initial_bound` (clamped to [1, n]).
  Totalizer(sat::Solver& solver, const std::vector<logic::Lit>& inputs,
            std::uint32_t initial_bound);

  /// Adopts a network whose variables (and downward clauses) already live
  /// in the instance the solver loaded — the Tseitin cardinality lowering
  /// ships these as CardinalityBlock::layout. Only the upward half still
  /// missing up to `initial_bound` is emitted; output variables are
  /// shared, so the count is never encoded twice.
  Totalizer(sat::Solver& solver, logic::CardinalityLayout layout,
            std::uint32_t initial_bound);

  std::size_t size() const noexcept { return tree_.size(); }

  /// Outputs materialised so far (at_least(j) valid for j <= this).
  std::uint32_t materialized_bound() const noexcept {
    return tree_.upward_bound();
  }

  /// Extends the materialised outputs/clauses up to `bound` (clamped to
  /// size()). Monotone; no-op when already covered.
  void ensure_bound(sat::Solver& solver, std::uint32_t bound) {
    SolverClauseSink sink(solver);
    tree_.ensure_upward(sink, bound);
  }

  /// Literal implied true when at least `j` inputs are true (1-based;
  /// requires j <= materialized_bound()).
  logic::Lit at_least(std::uint32_t j) const { return tree_.at_least(j); }

 private:
  logic::TotalizerTree tree_;
};

/// Weighted totalizer. Output map: attainable sum -> literal implied true
/// when the weighted sum of true inputs reaches that value.
class GeneralizedTotalizer {
 public:
  /// Returns nullopt if the number of distinct sums exceeds `max_outputs`,
  /// the emitted clauses exceed `max_clauses` (merges are quadratic in the
  /// children's sum counts, so clauses can explode long before outputs
  /// do), or `cancel` fires mid-construction.
  static std::optional<GeneralizedTotalizer> build(
      sat::Solver& solver, const std::vector<std::pair<logic::Lit, Weight>>& inputs,
      std::size_t max_outputs = 100'000, std::size_t max_clauses = 2'000'000,
      const util::CancelToken* cancel = nullptr);

  /// sum -> output literal (o true when weighted count >= sum).
  const std::map<Weight, logic::Lit>& outputs() const noexcept {
    return root_;
  }

  /// Adds the order chain over the root outputs: for consecutive
  /// attainable sums w < w', clause (o_{w'} -> o_w). Semantically free
  /// (the count function is monotone, and the outputs are auxiliary), and
  /// it makes a *retractable* upper bound possible: with the chain in
  /// place, assuming ~o_w falsifies every output >= w by propagation, so
  /// a single assumption literal bounds the whole sum, and the solver
  /// survives LSU's optimality proof.
  void add_order_chain(sat::Solver& solver) const;

  /// The literal to *assume false* (returned negated, ready to assume) to
  /// enforce "weighted sum <= bound" once add_order_chain ran: ~o for the
  /// smallest attainable sum exceeding `bound`. Returns kNoLit when no
  /// attainable sum exceeds `bound` (the bound is vacuous).
  logic::Lit upper_bound_assumption(Weight bound) const;

 private:
  std::map<Weight, logic::Lit> root_;
};

}  // namespace fta::maxsat
