// The shapes the default choice answers without Step 5: votes of votes
// and ladders are closed-form all the way down, so the module pass
// composes their optimum and their top-k from the events' weights alone.
// Every answer must be Optimal with zero SAT calls, its optimum must be
// the BDD's, and its top-5 costs those of an independent tree DP.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "sat/solver.hpp"

namespace fta {
namespace {

using maxsat::MaxSatStatus;

/// A 2-of-`n` vote over `n` independent 2-of-3 subsystems with fixed
/// probabilities spread over [0.01, 0.2]: equal thresholds and diverse
/// weights fragment core-guided search, so no Step 5 solver proves the
/// optimum of n = 10 within a second.
ft::FaultTree vote_of_votes(std::uint32_t n) {
  ft::FaultTreeBuilder b;
  std::vector<ft::NodeIndex> subsystems;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::vector<ft::NodeIndex> members;
    for (std::uint32_t j = 0; j < 3; ++j) {
      const double frac = std::fmod((i * 3 + j + 1) * 0.6180339887498949, 1.0);
      members.push_back(b.event("e" + std::to_string(i) + "_" +
                                    std::to_string(j),
                                0.01 + 0.19 * frac));
    }
    subsystems.push_back(b.vote("S" + std::to_string(i), 2, members));
  }
  b.top(b.vote("TOP", 2, subsystems));
  return std::move(b).build();
}

/// The 32 ladder shapes: (n-1)-of-n subsystems with n = 3 or 4, an OR or
/// AND top, plain or nested (OR-of-two) members, 600 to 4 800 events.
std::vector<std::pair<std::string, ft::FaultTree>> ladders() {
  std::vector<std::pair<std::string, ft::FaultTree>> out;
  for (const std::uint32_t n : {3u, 4u}) {
    for (const ft::NodeType top : {ft::NodeType::Or, ft::NodeType::And}) {
      for (const bool nested : {false, true}) {
        for (const std::uint32_t events : {600u, 1200u, 2400u, 4800u}) {
          gen::LadderOptions o;
          o.members = n;
          o.k = n - 1;
          o.combine = top;
          o.nested = nested;
          o.subsystems = events / (nested ? 2 * n : n);
          const std::string name =
              std::to_string(n - 1) + "-of-" + std::to_string(n) +
              (top == ft::NodeType::Or ? " OR" : " AND") +
              (nested ? " nested " : " plain ") + std::to_string(events);
          out.emplace_back(name, gen::ladder_tree(o, events + n));
        }
      }
    }
  }
  return out;
}

/// The k cheapest minimal-cut costs (sum of -ln p) of a tree-shaped
/// model by k-best lists, children first: OR merges its children's
/// lists, AND takes k-best sums, k-of-n picks exactly k children.
std::vector<double> tree_dp_top_k(const ft::FaultTree& tree, std::size_t k) {
  const auto k_best_sums = [k](const std::vector<double>& a,
                               const std::vector<double>& b) {
    std::vector<double> out;
    for (const double x : a) {
      for (const double y : b) out.push_back(x + y);
    }
    std::sort(out.begin(), out.end());
    if (out.size() > k) out.resize(k);
    return out;
  };
  const auto k_best_merge = [k](std::vector<double> a,
                                const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
    std::sort(a.begin(), a.end());
    if (a.size() > k) a.resize(k);
    return a;
  };
  // Node indices are insertion-ordered, so children precede parents.
  std::vector<std::vector<double>> lists(tree.num_nodes());
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const ft::Node& n = tree.node(i);
    std::vector<double>& out = lists[i];
    switch (n.type) {
      case ft::NodeType::BasicEvent:
        out = {-std::log(tree.event_probability(n.event_index))};
        break;
      case ft::NodeType::Or:
        for (const ft::NodeIndex c : n.children) {
          out = k_best_merge(out, lists[c]);
        }
        break;
      case ft::NodeType::And:
        out = {0.0};
        for (const ft::NodeIndex c : n.children) {
          out = k_best_sums(out, lists[c]);
        }
        break;
      case ft::NodeType::Vote: {
        std::vector<std::vector<double>> chosen(n.k + 1);
        chosen[0] = {0.0};
        for (const ft::NodeIndex c : n.children) {
          for (std::size_t j = n.k; j >= 1; --j) {
            chosen[j] =
                k_best_merge(chosen[j], k_best_sums(chosen[j - 1], lists[c]));
          }
        }
        out = chosen[n.k];
        break;
      }
    }
  }
  return lists[tree.top()];
}

/// Step 3 rounds each weight to 1/weight_scale: two cuts the scaled
/// objective ranks equal may differ in -ln P by half a unit per member.
double rounding_slack(const ft::CutSet& a, const ft::CutSet& b) {
  return 0.5e-6 * static_cast<double>(a.size() + b.size()) + 1e-9;
}

void expect_composed_without_search(const std::string& name,
                                    const ft::FaultTree& tree) {
  const core::MpmcsPipeline pipeline;  // the default choice
  const std::uint64_t sat_calls = sat::Solver::global_solve_calls();
  const core::MpmcsSolution sol = pipeline.solve(tree);
  MaxSatStatus top_status = MaxSatStatus::Unknown;
  const auto top = pipeline.top_k(tree, 5, nullptr, &top_status);
  EXPECT_EQ(sat::Solver::global_solve_calls(), sat_calls) << name;

  ASSERT_EQ(sol.status, MaxSatStatus::Optimal) << name;
  EXPECT_EQ(sol.solver_name, "stratified") << name;
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut)) << name;
  bdd::FaultTreeBdd exact(tree);
  const auto best = exact.mpmcs();
  ASSERT_TRUE(best.has_value()) << name;
  EXPECT_NEAR(sol.log_cost, best->first.log_cost(tree),
              rounding_slack(sol.cut, best->first) * (1.0 + sol.log_cost))
      << name;

  ASSERT_EQ(top_status, MaxSatStatus::Optimal) << name;
  const std::vector<double> reference = tree_dp_top_k(tree, 5);
  ASSERT_EQ(top.size(), reference.size()) << name;
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_NEAR(top[i].log_cost, reference[i],
                rounding_slack(top[i].cut, top[i].cut) * (1.0 + reference[i]))
        << name << " rank " << i;
    if (i > 0) {
      EXPECT_NE(top[i].cut, top[i - 1].cut) << name;
    }
  }
  EXPECT_EQ(top.front().scaled_cost, sol.scaled_cost) << name;
}

TEST(ModulePass, VoteOfVotesAnswersWithoutSearch) {
  for (std::uint32_t n = 6; n <= 16; ++n) {
    expect_composed_without_search("vote of votes " + std::to_string(n),
                                   vote_of_votes(n));
  }
}

TEST(ModulePass, LaddersAnswerWithoutSearch) {
  const auto shapes = ladders();
  ASSERT_EQ(shapes.size(), 32u);
  for (const auto& [name, tree] : shapes) {
    expect_composed_without_search(name, tree);
  }
}

TEST(ModulePass, ComposedScaledCostIsTheMonolithicOne) {
  // The composed optimum is the monolithic Step 3 optimum, p = 0 members
  // (forbidden weight) and p = 1 members (no weight) included.
  ft::FaultTree tree = vote_of_votes(6);
  tree.set_event_enabled(0, false);
  tree.set_event_enabled(1, false);
  tree.set_event_probability(4, 1.0);
  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;
  const core::MpmcsSolution a = core::MpmcsPipeline().solve(tree);
  const core::MpmcsSolution b = core::MpmcsPipeline(mono).solve(tree);
  ASSERT_EQ(a.status, MaxSatStatus::Optimal);
  ASSERT_EQ(b.status, MaxSatStatus::Optimal);
  EXPECT_EQ(a.scaled_cost, b.scaled_cost);
  EXPECT_DOUBLE_EQ(a.probability, b.probability);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, a.cut));
}

}  // namespace
}  // namespace fta
