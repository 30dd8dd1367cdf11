// Weighted Partial MaxSAT instances (the paper's Step 4 artefact).
//
// An instance has hard clauses (must hold) and soft clauses, each with a
// positive integer weight paid when the clause is falsified. The optimum
// is a model of the hard clauses minimising the total falsified-soft
// weight. Real-valued -log probabilities are scaled to integers by the
// pipeline before they get here (see core/pipeline).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "logic/cardinality.hpp"
#include "logic/cnf.hpp"

namespace fta::maxsat {

using Weight = std::uint64_t;

struct SoftClause {
  logic::Clause lits;
  Weight weight = 1;
};

class WcnfInstance {
 public:
  WcnfInstance() = default;
  explicit WcnfInstance(std::uint32_t num_vars) : num_vars_(num_vars) {}

  logic::Var new_var() { return num_vars_++; }
  void ensure_var(logic::Var v) {
    if (v >= num_vars_) num_vars_ = v + 1;
  }
  std::uint32_t num_vars() const noexcept { return num_vars_; }

  void add_hard(logic::Clause lits);
  void add_hard_cnf(const logic::Cnf& cnf);
  /// Adds a soft clause; `weight` must be positive.
  void add_soft(logic::Clause lits, Weight weight);
  /// Convenience: unit soft clause.
  void add_soft_unit(logic::Lit l, Weight weight) {
    add_soft(logic::Clause{l}, weight);
  }

  /// Drops every soft clause (hard side untouched) so the mutation path
  /// can rebuild the softs under new weights against unchanged hards.
  void clear_soft() {
    soft_.clear();
    total_soft_weight_ = 0;
  }

  const std::vector<logic::Clause>& hard() const noexcept { return hard_; }
  const std::vector<SoftClause>& soft() const noexcept { return soft_; }
  Weight total_soft_weight() const noexcept { return total_soft_weight_; }

  /// Sum of weights of soft clauses falsified by `model` (indexed by var;
  /// the model may be longer than num_vars()).
  Weight cost_of(const std::vector<bool>& model) const;

  /// True iff `model` satisfies every hard clause.
  bool satisfies_hard(const std::vector<bool>& model) const;

  /// Structural metadata from the cardinality-native Tseitin lowering:
  /// one block per totalizer-encoded vote gate. Purely advisory — the
  /// hard clauses are self-contained — but it lets the preprocessor
  /// freeze counting auxiliaries by construction and the incremental
  /// MaxSAT engine reuse the networks as pre-built core structures.
  /// Not serialised by the WCNF writer.
  const std::vector<logic::CardinalityBlock>& cards() const noexcept {
    return cards_;
  }
  void set_cards(std::vector<logic::CardinalityBlock> cards) {
    cards_ = std::move(cards);
  }

 private:
  std::uint32_t num_vars_ = 0;
  std::vector<logic::Clause> hard_;
  std::vector<SoftClause> soft_;
  Weight total_soft_weight_ = 0;
  std::vector<logic::CardinalityBlock> cards_;
};

/// Writes the classic WCNF format: `p wcnf <vars> <clauses> <top>`, hard
/// clauses carry the `top` weight.
void write_wcnf(std::ostream& os, const WcnfInstance& instance,
                const std::string& comment = "");

/// Parses the classic WCNF format (throws std::runtime_error on errors).
WcnfInstance read_wcnf(std::istream& is);

std::string to_wcnf_string(const WcnfInstance& instance);
WcnfInstance from_wcnf_string(const std::string& text);

}  // namespace fta::maxsat
