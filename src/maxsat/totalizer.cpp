#include "maxsat/totalizer.hpp"

#include <algorithm>
#include <cassert>

#include "util/failpoint.hpp"

namespace fta::maxsat {

using logic::Lit;

Totalizer::Totalizer(sat::Solver& solver, const std::vector<Lit>& inputs,
                     std::uint32_t initial_bound)
    : tree_(inputs) {
  ensure_bound(solver, std::max(1u, initial_bound));
}

Totalizer::Totalizer(sat::Solver& solver, logic::CardinalityLayout layout,
                     std::uint32_t initial_bound)
    : tree_(std::move(layout)) {
  ensure_bound(solver, std::max(1u, initial_bound));
}

std::optional<GeneralizedTotalizer> GeneralizedTotalizer::build(
    sat::Solver& solver,
    const std::vector<std::pair<Lit, Weight>>& inputs,
    std::size_t max_outputs, std::size_t max_clauses,
    const util::CancelToken* cancel) {
  assert(!inputs.empty());
  // Failpoint "totalizer.build" models construction failure in the
  // clause-heavy cardinality encoding (the other allocation hot spot
  // besides the clause arena).
  FTA_FAILPOINT("totalizer.build");
  // A node: its attainable sums, ascending, each with its output literal.
  // Sorted vectors, not maps: a merge near the root holds up to millions
  // of pairwise sums, which vectors build, search and free in bulk.
  using Node = std::vector<std::pair<Weight, Lit>>;
  const auto output = [](const Node& node, Weight sum) {
    return std::lower_bound(node.begin(), node.end(), sum,
                            [](const auto& e, Weight w) { return e.first < w; })
        ->second;
  };
  std::vector<Node> nodes;
  nodes.reserve(inputs.size());
  for (const auto& [lit, w] : inputs) nodes.push_back({{w, lit}});
  std::size_t total_outputs = inputs.size();
  std::size_t total_clauses = 0;
  std::vector<Weight> sums;
  while (nodes.size() > 1) {
    std::vector<Node> next;
    next.reserve(nodes.size() / 2 + 1);
    for (std::size_t i = 0; i + 1 < nodes.size(); i += 2) {
      if (cancel && cancel->cancelled()) return std::nullopt;
      const Node& a = nodes[i];
      const Node& b = nodes[i + 1];
      // Clause count of this merge is |a| + |b| + |a|*|b|; refuse before
      // allocating when it would bust the budget.
      total_clauses += a.size() + b.size() + a.size() * b.size();
      if (total_clauses > max_clauses) return std::nullopt;
      // Attainable sums of the merged node: sums of a, sums of b, and all
      // pairwise combinations. A merge can be large: poll per row.
      sums.clear();
      for (const auto& [wa, la] : a) sums.push_back(wa);
      for (const auto& [wb, lb] : b) sums.push_back(wb);
      for (const auto& [wa, la] : a) {
        if (cancel && cancel->cancelled()) return std::nullopt;
        for (const auto& [wb, lb] : b) sums.push_back(wa + wb);
      }
      std::sort(sums.begin(), sums.end());
      sums.erase(std::unique(sums.begin(), sums.end()), sums.end());
      total_outputs += sums.size();
      if (total_outputs > max_outputs) return std::nullopt;
      Node merged;
      merged.reserve(sums.size());
      for (const Weight sum : sums) {
        merged.emplace_back(sum, Lit::pos(solver.new_var()));
      }
      for (const auto& [wa, la] : a) {
        solver.add_clause({~la, output(merged, wa)});
      }
      for (const auto& [wb, lb] : b) {
        solver.add_clause({~lb, output(merged, wb)});
      }
      for (const auto& [wa, la] : a) {
        if (cancel && cancel->cancelled()) return std::nullopt;
        for (const auto& [wb, lb] : b) {
          solver.add_clause({~la, ~lb, output(merged, wa + wb)});
        }
      }
      next.push_back(std::move(merged));
    }
    if (nodes.size() % 2 == 1) next.push_back(std::move(nodes.back()));
    nodes = std::move(next);
  }
  GeneralizedTotalizer gte;
  gte.root_.insert(nodes.front().begin(), nodes.front().end());
  return gte;
}

void GeneralizedTotalizer::assert_upper_bound(sat::Solver& solver,
                                              Weight bound) const {
  for (auto it = root_.upper_bound(bound); it != root_.end(); ++it) {
    solver.add_clause({~it->second});
  }
}

void GeneralizedTotalizer::add_order_chain(sat::Solver& solver) const {
  auto it = root_.begin();
  if (it == root_.end()) return;
  Lit prev = it->second;
  for (++it; it != root_.end(); ++it) {
    solver.add_clause({~it->second, prev});
    prev = it->second;
  }
}

logic::Lit GeneralizedTotalizer::upper_bound_assumption(Weight bound) const {
  const auto it = root_.upper_bound(bound);
  return it == root_.end() ? logic::kNoLit : ~it->second;
}

}  // namespace fta::maxsat
