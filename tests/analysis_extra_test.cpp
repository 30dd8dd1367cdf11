// Tests for modularization, minimal path sets, common-cause failure
// groups, and Monte Carlo uncertainty propagation.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/ccf.hpp"
#include "analysis/modules.hpp"
#include "analysis/quantitative.hpp"
#include "analysis/uncertainty.hpp"
#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "logic/eval.hpp"
#include "mocus/mocus.hpp"

namespace fta::analysis {
namespace {

// -------------------------------------------------------------- modules --

TEST(Modules, EveryGateOfAProperTreeIsAModule) {
  // Without sharing, every gate's subtree is private: all gates are
  // modules.
  const ft::FaultTree t = ft::fire_protection_system();
  const auto modules = find_modules(t);
  EXPECT_EQ(modules.size(), t.stats().gates);
}

TEST(Modules, SharedSubtreeBreaksModularity) {
  // S is shared by G1 and G2: G1/G2 are not modules (S reachable from
  // both), S itself *is* a module, and the top always is.
  ft::FaultTree t;
  const auto a = t.add_basic_event("a", 0.1);
  const auto b = t.add_basic_event("b", 0.1);
  const auto c = t.add_basic_event("c", 0.1);
  const auto d = t.add_basic_event("d", 0.1);
  const auto s = t.add_gate("S", ft::NodeType::Or, {a, b});
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {s, c});
  const auto g2 = t.add_gate("G2", ft::NodeType::And, {s, d});
  const auto top = t.add_gate("TOP", ft::NodeType::Or, {g1, g2});
  t.set_top(top);
  EXPECT_TRUE(is_module(t, top));
  EXPECT_TRUE(is_module(t, s));
  EXPECT_FALSE(is_module(t, g1));
  EXPECT_FALSE(is_module(t, g2));
}

TEST(Modules, SharedEventBreaksModularity) {
  // Event e feeds two gates: neither gate is a module.
  ft::FaultTree t;
  const auto e = t.add_basic_event("e", 0.1);
  const auto x = t.add_basic_event("x", 0.1);
  const auto y = t.add_basic_event("y", 0.1);
  const auto g1 = t.add_gate("G1", ft::NodeType::And, {e, x});
  const auto g2 = t.add_gate("G2", ft::NodeType::And, {e, y});
  t.set_top(t.add_gate("TOP", ft::NodeType::Or, {g1, g2}));
  EXPECT_FALSE(is_module(t, g1));
  EXPECT_FALSE(is_module(t, g2));
  EXPECT_TRUE(is_module(t, t.top()));
}

TEST(Modules, LinearPassMatchesTheDefinition) {
  // The two-date DFS against the definition itself, checked the slow way:
  // a reachable gate is a module iff no reachable node outside its
  // descendants has a child among them; its events are counted directly.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 10 + static_cast<std::uint32_t>(seed % 20);
    opts.sharing = 0.05 * static_cast<double>(seed % 8);
    opts.vote_fraction = 0.2;
    const auto tree = gen::random_tree(opts, seed);
    const auto below = [&](ft::NodeIndex root) {
      std::vector<bool> seen(tree.num_nodes(), false);
      std::vector<ft::NodeIndex> stack(tree.node(root).children.begin(),
                                       tree.node(root).children.end());
      while (!stack.empty()) {
        const ft::NodeIndex id = stack.back();
        stack.pop_back();
        if (seen[id]) continue;
        seen[id] = true;
        for (const ft::NodeIndex c : tree.node(id).children) {
          stack.push_back(c);
        }
      }
      return seen;
    };
    std::vector<bool> reachable = below(tree.top());
    reachable[tree.top()] = true;
    std::vector<ModuleInfo> expected;
    for (ft::NodeIndex g = 0; g < tree.num_nodes(); ++g) {
      if (!reachable[g] || tree.node(g).type == ft::NodeType::BasicEvent) {
        continue;
      }
      const std::vector<bool> inside = below(g);
      bool module = true;
      std::size_t events = 0;
      for (ft::NodeIndex d = 0; d < tree.num_nodes(); ++d) {
        if (inside[d] && tree.node(d).type == ft::NodeType::BasicEvent) {
          ++events;
        }
        if (d == g || !reachable[d] || inside[d]) continue;
        for (const ft::NodeIndex c : tree.node(d).children) {
          module = module && !inside[c];
        }
      }
      if (module) expected.push_back({g, events});
    }
    const auto modules = find_modules(tree);
    ASSERT_EQ(modules.size(), expected.size()) << "seed " << seed;
    for (std::size_t i = 0; i < modules.size(); ++i) {
      EXPECT_EQ(modules[i].gate, expected[i].gate) << "seed " << seed;
      EXPECT_EQ(modules[i].descendant_events, expected[i].descendant_events)
          << "seed " << seed;
    }
  }
}

TEST(Modules, TopIsAlwaysAModule) {
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 20;
    opts.sharing = 0.4;
    const auto tree = gen::random_tree(opts, seed);
    const auto modules = find_modules(tree);
    EXPECT_TRUE(std::any_of(
        modules.begin(), modules.end(),
        [&](const ModuleInfo& m) { return m.gate == tree.top(); }))
        << "seed " << seed;
    // Descendant-event counts are sane.
    for (const auto& m : modules) {
      EXPECT_GE(m.descendant_events, 1u);
      EXPECT_LE(m.descendant_events, tree.num_events());
    }
  }
}

// ------------------------------------------------------------ path sets --

TEST(PathSets, PaperExample) {
  // FPS minimal path sets: keeping these healthy keeps the system up.
  // f = (x1&x2) | x3 | x4 | (x5&(x6|x7)); success = all cuts blocked.
  const ft::FaultTree t = ft::fire_protection_system();
  bdd::FaultTreeBdd analysis(t);
  const auto paths = analysis.minimal_path_sets();
  // Cross-property: every path set intersects every cut set.
  const auto cuts = analysis.minimal_cut_sets();
  for (const auto& p : paths) {
    for (const auto& c : cuts) {
      bool hits = false;
      for (const auto e : p.events()) {
        if (c.contains(e)) {
          hits = true;
          break;
        }
      }
      EXPECT_TRUE(hits) << "path " << p.to_string(t) << " misses cut "
                        << c.to_string(t);
    }
  }
  // {x3, x4, x1, x5} is a path set: blocks {x1,x2}, {x3}, {x4}, {x5,*}.
  EXPECT_NE(std::find(paths.begin(), paths.end(), ft::CutSet({0, 2, 3, 4})),
            paths.end());
}

TEST(PathSets, BlockingEveryPathSetEventPreventsTop) {
  for (std::uint64_t seed = 20; seed < 32; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 10;
    opts.vote_fraction = 0.2;
    const auto tree = gen::random_tree(opts, seed);
    bdd::FaultTreeBdd analysis(tree);
    logic::FormulaStore store;
    const auto f = tree.to_formula(store);
    for (const auto& p : analysis.minimal_path_sets(200)) {
      // All events occur EXCEPT the path set's: top must not occur.
      std::vector<bool> occurs(tree.num_events(), true);
      for (const auto e : p.events()) occurs[e] = false;
      EXPECT_FALSE(logic::eval(store, f, occurs))
          << "seed " << seed << " path " << p.to_string(tree);
      // Minimality: re-enabling any single member lets the top occur.
      for (const auto e : p.events()) {
        occurs[e] = true;
        EXPECT_TRUE(logic::eval(store, f, occurs))
            << "seed " << seed << " non-minimal at " << e;
        occurs[e] = false;
      }
    }
  }
}

TEST(PathSets, MostProbablePathSet) {
  const ft::FaultTree t = ft::fire_protection_system();
  bdd::FaultTreeBdd analysis(t);
  const auto best = analysis.most_probable_path_set();
  ASSERT_TRUE(best.has_value());
  // Its probability equals prod (1 - p) over its members.
  double expected = 1.0;
  for (const auto e : best->first.events()) {
    expected *= 1.0 - t.event_probability(e);
  }
  EXPECT_NEAR(best->second, expected, 1e-12);
  // And it is at least as probable as any enumerated path set.
  for (const auto& p : analysis.minimal_path_sets()) {
    double prob = 1.0;
    for (const auto e : p.events()) prob *= 1.0 - t.event_probability(e);
    EXPECT_GE(best->second + 1e-12, prob);
  }
}

TEST(PathSets, CountMatchesEnumeration) {
  for (std::uint64_t seed = 40; seed < 50; ++seed) {
    gen::GeneratorOptions opts;
    opts.num_events = 9;
    const auto tree = gen::random_tree(opts, seed);
    bdd::FaultTreeBdd analysis(tree);
    EXPECT_DOUBLE_EQ(analysis.path_set_count(),
                     static_cast<double>(analysis.minimal_path_sets().size()))
        << "seed " << seed;
  }
}

// ------------------------------------------------------------------ CCF --

TEST(Ccf, BetaFactorRewriteShape) {
  // 2-of-3 pumps with beta = 0.2.
  const auto tree = gen::ladder_tree(1, 7);
  CcfGroup group;
  group.name = "pumps";
  group.members = {0, 1, 2};
  group.beta = 0.2;
  const auto ccf = apply_beta_factor(tree, {group});
  // Members became OR gates; one common event added.
  EXPECT_EQ(ccf.num_events(), 4u);  // 3 indep + 1 common
  EXPECT_NE(ccf.find("pumps__common"), ft::kNoIndex);
  EXPECT_NE(ccf.find("s0_e0__indep"), ft::kNoIndex);
  EXPECT_NE(ccf.find("s0_e0__ccf_or"), ft::kNoIndex);
}

TEST(Ccf, CommonCauseBecomesTheMpmcs) {
  // Independent 2-of-3 redundancy: best cut is a pair (p^2). With
  // beta-factor CCF the shared event (beta * p) dominates — the classic
  // insight that redundancy is capped by common causes.
  ft::FaultTree t;
  const auto a = t.add_basic_event("pump_a", 0.01);
  const auto b = t.add_basic_event("pump_b", 0.01);
  const auto c = t.add_basic_event("pump_c", 0.01);
  t.set_top(t.add_vote_gate("PUMPS_2oo3", 2, {a, b, c}));

  const auto before = core::MpmcsPipeline().solve(t);
  ASSERT_EQ(before.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_EQ(before.cut.size(), 2u);
  EXPECT_NEAR(before.probability, 1e-4, 1e-12);

  CcfGroup group{"pumps", {0, 1, 2}, 0.1};
  const auto ccf_tree = apply_beta_factor(t, {group});
  const auto after = core::MpmcsPipeline().solve(ccf_tree);
  ASSERT_EQ(after.status, maxsat::MaxSatStatus::Optimal);
  ASSERT_EQ(after.cut.size(), 1u);
  EXPECT_EQ(ccf_tree.event(after.cut.events()[0]).name, "pumps__common");
  EXPECT_NEAR(after.probability, 0.001, 1e-12);  // beta * p = 0.1 * 0.01
}

TEST(Ccf, ZeroBetaPreservesTopProbability) {
  const ft::FaultTree t = ft::fire_protection_system();
  CcfGroup group{"sensors", {0, 1}, 0.0};
  const auto ccf_tree = apply_beta_factor(t, {group});
  EXPECT_NEAR(top_event_probability(ccf_tree), top_event_probability(t),
              1e-12);
}

TEST(Ccf, BetaRaisesSystemRisk) {
  // For a redundant system, common cause can only hurt.
  const auto tree = gen::ladder_tree(3, 5);
  const double base = top_event_probability(tree);
  CcfGroup group{"sub0", {0, 1, 2}, 0.3};
  const auto ccf_tree = apply_beta_factor(tree, {group});
  EXPECT_GT(top_event_probability(ccf_tree), base);
}

TEST(Ccf, RejectsMalformedGroups) {
  const ft::FaultTree t = ft::fire_protection_system();
  EXPECT_THROW(apply_beta_factor(t, {CcfGroup{"g", {0}, 0.1}}),
               ft::ValidationError);
  EXPECT_THROW(apply_beta_factor(t, {CcfGroup{"g", {0, 99}, 0.1}}),
               ft::ValidationError);
  EXPECT_THROW(apply_beta_factor(t, {CcfGroup{"g", {0, 1}, 1.5}}),
               ft::ValidationError);
  EXPECT_THROW(apply_beta_factor(
                   t, {CcfGroup{"g", {0, 1}, 0.1}, CcfGroup{"h", {1, 2}, 0.1}}),
               ft::ValidationError);
}

// ---------------------------------------------------------- uncertainty --

TEST(Uncertainty, DeterministicInSeed) {
  const ft::FaultTree t = ft::fire_protection_system();
  UncertaintyOptions opts;
  opts.samples = 200;
  opts.seed = 42;
  const auto a = monte_carlo(t, opts);
  const auto b = monte_carlo(t, opts);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  ASSERT_EQ(a.mpmcs_shares.size(), b.mpmcs_shares.size());
}

TEST(Uncertainty, QuantilesAreOrderedAndBracketNominal) {
  const ft::FaultTree t = ft::fire_protection_system();
  UncertaintyOptions opts;
  opts.samples = 500;
  const auto r = monte_carlo(t, opts);
  EXPECT_LE(r.p05, r.p50);
  EXPECT_LE(r.p50, r.p95);
  EXPECT_GT(r.mean, 0.0);
  EXPECT_LT(r.mean, 1.0);
  // The nominal (median-parameter) top probability sits inside the 5-95
  // band for a median-parameterised lognormal.
  const double nominal = top_event_probability(t);
  EXPECT_GT(nominal, r.p05 * 0.5);
  EXPECT_LT(nominal, r.p95 * 2.0);
}

TEST(Uncertainty, SharesSumToOneAndFavourNominalMpmcs) {
  const ft::FaultTree t = ft::fire_protection_system();
  UncertaintyOptions opts;
  opts.samples = 400;
  opts.default_error_factor = 2.0;
  const auto r = monte_carlo(t, opts);
  double total = 0.0;
  for (const auto& [cut, share] : r.mpmcs_shares) total += share;
  EXPECT_NEAR(total, 1.0, 1e-9);
  ASSERT_FALSE(r.mpmcs_shares.empty());
  // {x1, x2} is 4x more probable than the runner-up: it should dominate.
  EXPECT_EQ(r.mpmcs_shares.front().first, ft::CutSet({0, 1}));
  EXPECT_GT(r.mpmcs_shares.front().second, 0.5);
}

TEST(Uncertainty, ZeroErrorFactorKeepsEverythingFixed) {
  const ft::FaultTree t = ft::fire_protection_system();
  UncertaintyOptions opts;
  opts.samples = 50;
  opts.default_error_factor = 1.0;  // degenerate lognormal
  const auto r = monte_carlo(t, opts);
  const double nominal = top_event_probability(t);
  EXPECT_NEAR(r.mean, nominal, 1e-12);
  EXPECT_NEAR(r.p05, nominal, 1e-12);
  EXPECT_NEAR(r.p95, nominal, 1e-12);
  ASSERT_EQ(r.mpmcs_shares.size(), 1u);
  EXPECT_EQ(r.mpmcs_shares[0].first, ft::CutSet({0, 1}));
}

TEST(Uncertainty, WiderErrorFactorWidensTheBand) {
  const ft::FaultTree t = ft::fire_protection_system();
  UncertaintyOptions narrow;
  narrow.samples = 400;
  narrow.default_error_factor = 1.5;
  UncertaintyOptions wide = narrow;
  wide.default_error_factor = 10.0;
  const auto a = monte_carlo(t, narrow);
  const auto b = monte_carlo(t, wide);
  EXPECT_GT(b.p95 - b.p05, a.p95 - a.p05);
}

}  // namespace
}  // namespace fta::analysis
