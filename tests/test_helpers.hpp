// Shared helpers for the test suites: random CNF generation, brute-force
// SAT/MaxSAT oracles, random fault-formula construction, and fault trees
// whose closed-form top sits over modules that need search.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ft/builder.hpp"
#include "logic/cnf.hpp"
#include "logic/formula.hpp"
#include "util/rng.hpp"

namespace fta::test {

/// Uniform random k-CNF over `num_vars` variables.
inline logic::Cnf random_cnf(util::Rng& rng, std::uint32_t num_vars,
                             std::size_t num_clauses, std::size_t clause_len) {
  logic::Cnf cnf(num_vars);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    logic::Clause clause;
    for (std::size_t j = 0; j < clause_len; ++j) {
      const auto v = static_cast<logic::Var>(rng.below(num_vars));
      clause.push_back(logic::Lit::make(v, rng.chance(0.5)));
    }
    cnf.add_clause(std::move(clause));
  }
  return cnf;
}

/// Exhaustive SAT oracle: returns a model if one exists.
inline std::optional<std::vector<bool>> brute_force_sat(
    const logic::Cnf& cnf) {
  const std::uint32_t n = cnf.num_vars();
  std::vector<bool> assignment(n, false);
  for (std::uint64_t mask = 0; mask < (1ULL << n); ++mask) {
    for (std::uint32_t v = 0; v < n; ++v) assignment[v] = (mask >> v) & 1;
    if (cnf.eval(assignment)) return assignment;
  }
  return std::nullopt;
}

/// Random monotone formula (fault-tree shaped) over `num_vars` variables.
/// Returns the root; each variable is used at least once.
inline logic::NodeId random_monotone_formula(util::Rng& rng,
                                             logic::FormulaStore& store,
                                             std::uint32_t num_vars,
                                             bool allow_vote = true) {
  std::vector<logic::NodeId> pool;
  pool.reserve(num_vars);
  for (logic::Var v = 0; v < num_vars; ++v) pool.push_back(store.var(v));
  while (pool.size() > 1) {
    // Pick 2-4 operands and combine them with a random gate.
    const std::size_t arity =
        std::min<std::size_t>(pool.size(), 2 + rng.below(3));
    std::vector<logic::NodeId> operands;
    for (std::size_t i = 0; i < arity; ++i) {
      const std::size_t idx = rng.below(pool.size());
      operands.push_back(pool[idx]);
      pool[idx] = pool.back();
      pool.pop_back();
    }
    logic::NodeId combined;
    const std::uint64_t pick = rng.below(allow_vote && arity >= 3 ? 3 : 2);
    if (pick == 0) {
      combined = store.land(operands);
    } else if (pick == 1) {
      combined = store.lor(operands);
    } else {
      const auto k = static_cast<std::uint32_t>(2 + rng.below(arity - 1));
      combined = store.at_least(k, operands);
    }
    pool.push_back(combined);
  }
  return pool[0];
}

/// A closed-form top — OR, AND or k-of-n — over two or three modules that
/// need search (each a gate over two sub-gates that share an event) and,
/// half the time, a private event. The default choice composes the top
/// and solves each module on its own artefact. At most 13 events, so
/// exhaustive oracles stay cheap.
inline ft::FaultTree composed_tree(std::uint64_t seed) {
  util::Rng rng(seed * 6271 + 5);
  ft::FaultTreeBuilder b;
  std::uint32_t events = 0;
  const auto event = [&] {
    std::string name = "x";
    name += std::to_string(events++);
    return b.event(std::move(name), rng.uniform(0.01, 0.4));
  };
  const auto gate = [&](const std::string& name,
                        std::vector<ft::NodeIndex> kids) {
    const std::uint64_t pick = rng.below(kids.size() >= 3 ? 3 : 2);
    if (pick == 0) return b.and_(name, std::move(kids));
    if (pick == 1) return b.or_(name, std::move(kids));
    const auto k = static_cast<std::uint32_t>(2 + rng.below(kids.size() - 2));
    return b.vote(name, k, std::move(kids));
  };
  std::vector<ft::NodeIndex> children;
  const std::uint64_t modules = 2 + rng.below(2);
  for (std::uint64_t m = 0; m < modules; ++m) {
    const std::string name = "M" + std::to_string(m);
    const ft::NodeIndex shared = event();
    std::vector<ft::NodeIndex> right{shared, event()};
    if (rng.chance(0.5)) right.push_back(event());
    const ft::NodeIndex l = gate(name + "l", {shared, event()});
    const ft::NodeIndex r = gate(name + "r", std::move(right));
    children.push_back(gate(name, {l, r}));
  }
  if (rng.chance(0.5)) children.push_back(event());
  b.top(gate("TOP", std::move(children)));
  return std::move(b).build();
}

}  // namespace fta::test
