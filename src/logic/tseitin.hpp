// CNF conversion (the paper's Step 2).
//
// The Tseitin transformation introduces one fresh variable per gate and
// emits defining clauses, producing an equisatisfiable CNF in linear time.
// Formula variables keep their indices (CNF var v == formula var v); gate
// auxiliaries are allocated above num_vars().
//
// A Plaisted–Greenbaum variant (implication clauses only for the polarity
// in which each gate occurs) is available as an option, and a naive
// distributive expansion is provided for the ablation benchmark that
// motivates Step 2.
//
// AtLeast(k) voting gates are first-class: depending on the configured
// CardinalityLowering they are either expanded to the O(n·k) AND/OR
// network first (the historical behaviour) or encoded directly as shared
// totalizer counting networks (logic/cardinality) — polarity-directed, so
// a monotone instance with the root asserted emits only the clause half
// its gates actually need. Totalizer-lowered gates are reported as
// CardinalityBlocks so downstream layers can freeze the counting
// auxiliaries (preprocessing) and reuse the networks (MaxSAT).
#pragma once

#include <optional>
#include <unordered_map>
#include <vector>

#include "logic/cardinality.hpp"
#include "logic/cnf.hpp"
#include "logic/formula.hpp"

namespace fta::logic {

/// How AtLeast(k) gates reach CNF.
enum class CardinalityLowering : std::uint8_t {
  Expand,     ///< Rewrite to the recursive AND/OR network, then Tseitin.
  Totalizer,  ///< Encode every vote as a totalizer counting network.
  Auto,       ///< Totalizer when n*k reaches the threshold, else expand.
};

const char* cardinality_lowering_name(CardinalityLowering mode) noexcept;

/// The lowering policy: whether an AtLeast(k) gate over n inputs is
/// encoded as a totalizer network under `mode`. Auto picks the totalizer
/// once n*k reaches 10: below it the expanded network is comparable in
/// size and interacts well with preprocessing, and 10 makes every wide
/// vote (n >= 5) cardinality-native. Exposed so other layers (e.g. the
/// pipeline's preprocessing profile) share the exact decision rule
/// instead of re-deriving it. Note tseitin applies it to *post-fold* gate
/// dimensions (constant children removed, k==1/n rewritten away by
/// FormulaStore::at_least).
bool lowers_to_totalizer(CardinalityLowering mode, std::uint32_t k,
                         std::size_t n) noexcept;

struct TseitinOptions {
  /// If true, emit only the clause direction implied by each gate's
  /// polarity (Plaisted–Greenbaum). Halves clause count; still
  /// equisatisfiable when the root is asserted.
  bool polarity_aware = false;
  /// Vote-gate lowering strategy. Totalizer-encoded gates are always
  /// polarity-directed (independent of `polarity_aware`): the counting
  /// clauses are auxiliary definitions, so omitting the unused half
  /// preserves the model projection onto input variables.
  CardinalityLowering card_lowering = CardinalityLowering::Auto;
};

struct TseitinResult {
  Cnf cnf;
  /// Literal representing each translated formula node.
  std::unordered_map<NodeId, Lit> node_lit;
  /// Literal for the root formula.
  Lit root{};
  /// Number of original (formula) variables; CNF vars >= this are gate
  /// auxiliaries.
  std::uint32_t num_input_vars = 0;
  /// One entry per totalizer-lowered AtLeast gate (empty under Expand).
  std::vector<CardinalityBlock> cards;
};

/// Translates `root` to CNF. If `assert_root`, a unit clause forces the
/// root literal true, so CNF models restricted to input variables are
/// exactly the models of the formula. AtLeast gates are lowered according
/// to `opts.card_lowering` (hence the store is taken by reference).
TseitinResult tseitin(FormulaStore& store, NodeId root,
                      bool assert_root = true, TseitinOptions opts = {});

/// Naive CNF by distribution — exponential in the worst case. Returns
/// nullopt once more than `max_clauses` clauses would be produced.
/// Exists for bench/ablation_tseitin (Step 2's motivation).
std::optional<Cnf> distributive_cnf(FormulaStore& store, NodeId root,
                                    std::size_t max_clauses = 1'000'000);

}  // namespace fta::logic
