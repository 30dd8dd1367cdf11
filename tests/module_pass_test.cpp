// The shapes the default choice answers without Step 5: votes of votes
// and ladders are closed-form all the way down, so the module pass
// composes their optimum and their top-k from the events' weights alone.
// Every answer must be Optimal with zero SAT calls, its optimum must be
// the BDD's, and its top-5 costs those of an independent tree DP.
//
// Where a module needs search, only its kernel is searched: every
// closed-form sub-module collapses into one placeholder event weighted
// by its composed optimum. Kernel answers must keep the monolithic scaled
// optimum and top-k costs, p = 0 and p = 1 members and underflowing
// sub-module probabilities included, through edits and deadlines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "ft/builder.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"

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

TEST(ModulePass, WideVoteTakesItsCheapestMembers) {
  // A 1000-of-2000 vote over events: the optimum is its 1000 cheapest
  // events, which the optimum's composition selects in linear time.
  util::Rng rng(2000);
  ft::FaultTreeBuilder b;
  std::vector<ft::NodeIndex> events;
  std::vector<maxsat::Weight> costs;
  for (int i = 0; i < 2000; ++i) {
    const double p = rng.uniform(0.001, 0.5);
    events.push_back(b.event("e" + std::to_string(i), p));
    costs.push_back(
        static_cast<maxsat::Weight>(std::llround(-std::log(p) * 1e6)));
  }
  b.top(b.vote("TOP", 1000, events));
  const ft::FaultTree tree = std::move(b).build();
  std::sort(costs.begin(), costs.end());
  maxsat::Weight cheapest = 0;
  for (std::size_t i = 0; i < 1000; ++i) cheapest += costs[i];

  const core::MpmcsSolution sol = core::MpmcsPipeline().solve(tree);
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_EQ(sol.solver_name, "stratified");
  EXPECT_EQ(sol.scaled_cost, cheapest);
  EXPECT_EQ(sol.cut.size(), 1000u);
}

// --- kernels ----------------------------------------------------------------

/// The k cheapest scaled costs over the tree's whole minimal-cut family,
/// from the BDD (no p == 0 events: the costs are the ordinary sums).
std::vector<maxsat::Weight> bdd_top_k(const ft::FaultTree& tree,
                                      std::size_t k) {
  bdd::FaultTreeBdd exact(tree);
  std::vector<maxsat::Weight> costs;
  for (const ft::CutSet& cut : exact.minimal_cut_sets()) {
    const maxsat::ScaledCutCost c =
        maxsat::scaled_cut_cost(tree, cut.events(), 1e6);
    EXPECT_EQ(c.impossible, 0u);
    costs.push_back(c.ordinary);
  }
  std::sort(costs.begin(), costs.end());
  if (costs.size() > k) costs.resize(k);
  return costs;
}

void expect_distinct_minimal(const ft::FaultTree& tree,
                             const std::vector<core::MpmcsSolution>& top,
                             const std::string& name) {
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, top[i].cut)) << name << " " << i;
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(top[i].cut, top[j].cut) << name << " " << i << " " << j;
    }
  }
}

TEST(ModulePassKernels, RandomDagsMatchPortfolioAndBdd) {
  core::PipelineOptions race;
  race.solver = core::SolverChoice::Portfolio;
  const core::MpmcsPipeline kernels, portfolio(race);
  int searched = 0;
  for (const double sharing : {0.02, 0.05, 0.10}) {
    for (const double votes : {0.0, 0.1}) {
      for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        gen::GeneratorOptions g;
        g.num_events = 60;
        g.sharing = sharing;
        g.vote_fraction = votes;
        const ft::FaultTree tree = gen::random_tree(g, seed);
        const std::string name = "sharing " + std::to_string(sharing) +
                                 " votes " + std::to_string(votes) +
                                 " seed " + std::to_string(seed);
        const core::PreparedInstance prepared = kernels.prepare(tree);
        if (!prepared.strata || prepared.strata->collapsed.empty()) continue;
        ++searched;
        const core::MpmcsSolution a = kernels.solve_prepared(tree, prepared);
        const core::MpmcsSolution b = portfolio.solve(tree);
        ASSERT_EQ(a.status, MaxSatStatus::Optimal) << name;
        ASSERT_EQ(b.status, MaxSatStatus::Optimal) << name;
        EXPECT_EQ(a.scaled_cost, b.scaled_cost) << name;
        EXPECT_EQ(a.lineage, "strata") << name;
        EXPECT_TRUE(ft::is_minimal_cut_set(tree, a.cut)) << name;
        // Only the kernels reach Step 5.
        EXPECT_LT(a.cnf_vars, b.cnf_vars) << name;

        const std::vector<maxsat::Weight> want = bdd_top_k(tree, 5);
        MaxSatStatus status = MaxSatStatus::Unknown;
        const auto top = kernels.top_k_prepared(tree, prepared, 5, nullptr,
                                                &status);
        const auto mono = portfolio.top_k(tree, 5);
        EXPECT_NE(status, MaxSatStatus::Unknown) << name;
        ASSERT_EQ(top.size(), want.size()) << name;
        ASSERT_EQ(mono.size(), want.size()) << name;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(top[i].scaled_cost, want[i]) << name << " rank " << i;
          EXPECT_EQ(mono[i].scaled_cost, want[i]) << name << " rank " << i;
        }
        EXPECT_EQ(a.scaled_cost, want.front()) << name;
        expect_distinct_minimal(tree, top, name);
      }
    }
  }
  EXPECT_GE(searched, 24) << "too few sampled DAGs have a kernel";
}

/// A top that needs search — an AND over two ORs sharing event s — over
/// the sub-modules `add` appends, each of which collapses into one
/// placeholder of the top's kernel.
template <typename Add>
ft::FaultTree shared_top(Add add) {
  ft::FaultTreeBuilder b;
  const ft::NodeIndex s = b.event("s", 0.3);
  std::vector<ft::NodeIndex> kids{b.or_("G1", {s, b.event("y", 0.2)}),
                                  b.or_("G2", {s, b.event("z", 0.1)})};
  add(b, kids);
  b.top(b.and_("TOP", kids));
  return std::move(b).build();
}

/// The kernel cost of the placeholder standing for gate `name`.
maxsat::ScaledCutCost placeholder_cost(const maxsat::Kernel& kernel,
                                       const std::string& name) {
  const ft::NodeIndex i = kernel.tree.find(name);
  EXPECT_NE(i, ft::kNoIndex) << name;
  EXPECT_EQ(kernel.tree.node(i).type, ft::NodeType::BasicEvent) << name;
  return kernel.cost[kernel.tree.node(i).event_index];
}

TEST(ModulePassKernels, ImprobableSubModuleKeepsTheMonolithicScaledCost) {
  // M's optimum has -ln P = 100 * -ln 1e-4 ~ 921, where exp(-W/scale)
  // underflows: its placeholder carries the composed cost itself.
  const ft::FaultTree tree = shared_top([](ft::FaultTreeBuilder& b,
                                           std::vector<ft::NodeIndex>& kids) {
    std::vector<ft::NodeIndex> members;
    for (int i = 0; i < 100; ++i) {
      members.push_back(b.event("m" + std::to_string(i), 1e-4));
    }
    kids.push_back(b.and_("M", members));
  });
  const core::MpmcsPipeline pipeline;
  const core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_NE(prepared.strata, nullptr);
  ASSERT_EQ(prepared.strata->strata.size(), 1u);
  const maxsat::Kernel& kernel = *prepared.strata->strata.front().kernel;
  EXPECT_EQ(kernel.tree.num_events(), 4u);  // s, y, z and M
  const maxsat::Weight member =
      static_cast<maxsat::Weight>(std::llround(-std::log(1e-4) * 1e6));
  EXPECT_EQ(placeholder_cost(kernel, "M").ordinary, 100 * member);

  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;
  const core::MpmcsSolution a = pipeline.solve_prepared(tree, prepared);
  const core::MpmcsSolution b = core::MpmcsPipeline(mono).solve(tree);
  ASSERT_EQ(a.status, MaxSatStatus::Optimal);
  ASSERT_EQ(b.status, MaxSatStatus::Optimal);
  EXPECT_EQ(a.scaled_cost, b.scaled_cost);
  EXPECT_EQ(a.cut, b.cut);
  EXPECT_EQ(a.cut.size(), 101u);
  EXPECT_GT(a.log_cost, 921.0);
}

TEST(ModulePassKernels, ImpossibleAndCertainMembersInsideCollapsedSubModules) {
  // M1's only cut holds an impossible event, M2's cheapest a certain one,
  // and M3 prefers an ordinary AND to one with an impossible member.
  const ft::FaultTree tree = shared_top([](ft::FaultTreeBuilder& b,
                                           std::vector<ft::NodeIndex>& kids) {
    kids.push_back(b.and_("M1", {b.event("p0", 0.0), b.event("q", 0.5)}));
    kids.push_back(b.or_("M2", {b.event("r1", 1.0), b.event("r2", 0.1)}));
    kids.push_back(b.or_(
        "M3", {b.and_("M3a", {b.event("u0", 0.0), b.event("u1", 0.9)}),
               b.and_("M3b", {b.event("v0", 0.01), b.event("v1", 0.02)})}));
  });
  const core::MpmcsPipeline pipeline;
  const core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_NE(prepared.strata, nullptr);
  const maxsat::Kernel& kernel = *prepared.strata->strata.front().kernel;
  EXPECT_EQ(placeholder_cost(kernel, "M1").impossible, 1u);
  EXPECT_EQ(placeholder_cost(kernel, "M2").ordinary, 0u);
  EXPECT_EQ(placeholder_cost(kernel, "M3").impossible, 0u);

  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;
  core::PipelineOptions race;
  race.solver = core::SolverChoice::Portfolio;
  const core::MpmcsSolution a = pipeline.solve_prepared(tree, prepared);
  const core::MpmcsSolution b = core::MpmcsPipeline(mono).solve(tree);
  ASSERT_EQ(a.status, MaxSatStatus::Optimal);
  ASSERT_EQ(b.status, MaxSatStatus::Optimal);
  EXPECT_EQ(a.scaled_cost, b.scaled_cost);
  EXPECT_EQ(a.cut, b.cut);
  EXPECT_EQ(a.probability, 0.0);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, a.cut));

  MaxSatStatus status = MaxSatStatus::Unknown;
  const auto top = pipeline.top_k_prepared(tree, prepared, 5, nullptr, &status);
  const auto want = core::MpmcsPipeline(race).top_k(tree, 5);
  EXPECT_EQ(status, MaxSatStatus::Optimal);
  ASSERT_EQ(top.size(), want.size());
  for (std::size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].scaled_cost, want[i].scaled_cost) << "rank " << i;
  }
  expect_distinct_minimal(tree, top, "p = 0 / p = 1");
}

TEST(ModulePassKernels, WeightEditInsideCollapsedSubModuleRebasesTheKernel) {
  const ft::FaultTree tree = shared_top(
      [](ft::FaultTreeBuilder& b, std::vector<ft::NodeIndex>& kids) {
        kids.push_back(b.or_("M", {b.event("a", 0.2), b.event("b", 0.1)}));
      });
  const core::MpmcsPipeline pipeline;
  core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_NE(prepared.strata, nullptr);
  ASSERT_EQ(pipeline.solve_prepared(tree, prepared).status,
            MaxSatStatus::Optimal);
  core::PipelineOptions mono;
  mono.solver = core::SolverChoice::Oll;

  // a drops below b: M's optimum moves from {a} to {b}.
  ft::TreeDelta delta;
  delta.ops.push_back(ft::TreeDelta::weight("a", 0.05));
  const ft::FaultTree next = ft::apply_delta(tree, delta);
  std::uint64_t before = core::MpmcsPipeline::prepare_calls();
  const core::DeltaApplication st = pipeline.apply_delta(next, delta, prepared);
  EXPECT_EQ(core::MpmcsPipeline::prepare_calls() - before, 0u);
  EXPECT_TRUE(st.weight_only);
  EXPECT_TRUE(st.session_rebased);
  EXPECT_EQ(st.strata_reweighted, 1u);
  const core::MpmcsSolution warm = pipeline.solve_prepared(next, prepared);
  const core::MpmcsSolution cold = core::MpmcsPipeline(mono).solve(next);
  ASSERT_EQ(warm.status, MaxSatStatus::Optimal);
  EXPECT_EQ(warm.scaled_cost, cold.scaled_cost);
  EXPECT_EQ(warm.cut, cold.cut);
  EXPECT_TRUE(warm.cut.contains(next.node(next.find("b")).event_index));

  // An edit that leaves M's optimum where it is keeps the artefact whole.
  ft::TreeDelta again;
  again.ops.push_back(ft::TreeDelta::weight("a", 0.04));
  const ft::FaultTree last = ft::apply_delta(next, again);
  before = core::MpmcsPipeline::prepare_calls();
  const core::DeltaApplication kept = pipeline.apply_delta(last, again, prepared);
  EXPECT_EQ(core::MpmcsPipeline::prepare_calls() - before, 0u);
  EXPECT_EQ(kept.strata_reused, 1u);
  EXPECT_EQ(pipeline.solve_prepared(last, prepared).scaled_cost,
            core::MpmcsPipeline(mono).solve(last).scaled_cost);
}

TEST(ModulePassKernels, DeadlineInsideAKernelKeepsItsBounds) {
  // Six 2-of-4 subsystems in a ring, neighbours sharing one event, under
  // a 2-of-6 top, with probabilities spread as in vote_of_votes: no Step 5
  // engine proves this shape's optimum at the default scale within
  // seconds. One member of each subsystem is a collapsed AND, so the
  // search that runs out of time is the top's kernel's.
  std::uint32_t draws = 0;
  const auto p = [&draws] {
    return 0.01 + 0.19 * std::fmod(++draws * 0.6180339887498949, 1.0);
  };
  ft::FaultTreeBuilder b;
  std::vector<ft::NodeIndex> ring, subsystems;
  for (int i = 0; i < 6; ++i) ring.push_back(b.event("e" + std::to_string(i), p()));
  for (int i = 0; i < 6; ++i) {
    const std::string n = std::to_string(i);
    const ft::NodeIndex m =
        b.and_("M" + n, {b.event("m" + n + "a", std::sqrt(p())),
                         b.event("m" + n + "b", std::sqrt(p()))});
    subsystems.push_back(b.vote(
        "S" + n, 2, {ring[i], ring[(i + 1) % 6], b.event("x" + n, p()), m}));
  }
  b.top(b.vote("TOP", 2, subsystems));
  const ft::FaultTree tree = std::move(b).build();

  maxsat::Weight optimum = UINT64_MAX;
  for (const ft::CutSet& cut : bdd::FaultTreeBdd(tree).minimal_cut_sets()) {
    optimum = std::min(
        optimum, maxsat::scaled_cut_cost(tree, cut.events(), 1e6).ordinary);
  }
  core::PipelineOptions opts;
  opts.timeout_seconds = 0.25;
  const core::MpmcsPipeline pipeline(opts);
  const core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_NE(prepared.strata, nullptr);
  ASSERT_EQ(prepared.strata->strata.size(), 1u);
  EXPECT_EQ(prepared.strata->collapsed.size(), 6u);
  const core::MpmcsSolution sol = pipeline.solve_prepared(tree, prepared);
  ASSERT_EQ(sol.status, MaxSatStatus::Unknown);
  ASSERT_TRUE(sol.approximate);
  EXPECT_EQ(sol.lineage, "strata");
  EXPECT_LE(sol.scaled_lower_bound, optimum);
  EXPECT_LE(optimum, sol.scaled_cost);
  EXPECT_EQ(sol.scaled_cost,
            maxsat::scaled_cut_cost(tree, sol.cut.events(), 1e6).ordinary);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
}

}  // namespace
}  // namespace fta
