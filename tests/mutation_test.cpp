// Mutation differential suite (ctest label: mutation): the dynamic-tree
// edit path must be indistinguishable from solving from scratch. Random
// edit scripts (weight updates, enable/disable toggles, subtree splices)
// run against a long-lived PreparedInstance via MpmcsPipeline::apply_delta
// and every re-solve is cross-checked against a cold prepare+solve of the
// same effective tree — the optima must agree exactly (at the scaled
// integer objective the MaxSAT layer optimises; tied optimal cuts may
// differ, their cost may not). The suite also pins the structural
// guarantees the bench relies on: weight-only edits never cold-prepare,
// a single-module splice re-prepares exactly one frontier module, and a
// session survives a thousand edits without unbounded memory growth.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "ft/fault_tree.hpp"
#include "ft/parser.hpp"
#include "ft/tree_delta.hpp"
#include "gen/generator.hpp"
#include "maxsat/incremental.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace fta {
namespace {

/// The Step 3 objective of a cut: sum of scaled -log p weights. Two
/// optimal solutions of the same instance must agree on this exactly,
/// even when the cuts themselves tie.
std::int64_t scaled_cost(const ft::FaultTree& tree, const ft::CutSet& cut,
                         double weight_scale) {
  std::int64_t total = 0;
  for (const ft::EventIndex e : cut.events()) {
    const double p = tree.event_probability(e);
    if (p <= 0.0) {
      total += std::int64_t{1} << 40;  // forbidden-event sentinel
    } else if (p < 1.0) {
      total += std::llround(-std::log(p) * weight_scale);
    }
  }
  return total;
}

void expect_same_optimum(const ft::FaultTree& tree,
                         const core::MpmcsSolution& warm,
                         const core::MpmcsSolution& cold,
                         double weight_scale, const std::string& context) {
  ASSERT_EQ(warm.status, cold.status) << context;
  if (warm.status != maxsat::MaxSatStatus::Optimal) return;
  EXPECT_EQ(scaled_cost(tree, warm.cut, weight_scale),
            scaled_cost(tree, cold.cut, weight_scale))
      << context << "\n  warm cut " << warm.cut.to_string(tree)
      << " (P=" << warm.probability << ")\n  cold cut "
      << cold.cut.to_string(tree) << " (P=" << cold.probability << ")";
}

/// One random edit: mostly weight updates and toggles, occasionally a
/// splice grafting two fresh events under a random gate. Names are made
/// unique per (tag) so repeated splices never collide.
ft::TreeDelta random_delta(const ft::FaultTree& tree, util::Rng& rng,
                           const std::string& tag, bool allow_structural) {
  ft::TreeDelta delta;
  const std::size_t ops = 1 + rng.below(3);
  for (std::size_t o = 0; o < ops; ++o) {
    const double pick = rng.uniform();
    if (allow_structural && pick < 0.15) {
      std::vector<ft::NodeIndex> gates;
      for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
        if (tree.node(i).type != ft::NodeType::BasicEvent) gates.push_back(i);
      }
      const ft::NodeIndex gate = gates[rng.below(gates.size())];
      const std::string p = tag + "_" + std::to_string(o);
      const std::string subtree = "toplevel " + p + "r;\n" + p + "r or " +
                                  p + "a " + p + "b;\n" + p +
                                  "a prob=0.21;\n" + p + "b prob=0.07;\n";
      delta.ops.push_back(
          ft::TreeDelta::replace(tree.node(gate).name, subtree));
    } else if (pick < 0.6) {
      const auto e =
          static_cast<ft::EventIndex>(rng.below(tree.num_events()));
      delta.ops.push_back(ft::TreeDelta::weight(tree.event(e).name,
                                                rng.uniform(0.01, 0.99)));
    } else {
      const auto e =
          static_cast<ft::EventIndex>(rng.below(tree.num_events()));
      delta.ops.push_back(
          ft::TreeDelta::toggle(tree.event(e).name, rng.chance(0.7)));
    }
  }
  return delta;
}

/// A closed-form OR over three modules that need search: inside each,
/// two gates share an event, so the module pass gives every module an
/// artefact and a session of its own.
ft::FaultTree modular_tree() {
  return ft::parse_fault_tree(
      "toplevel TOP;\n"
      "TOP or M1 M2 M3;\n"
      "M1 and X1 Y1;\nX1 or a b;\nY1 or a c;\n"
      "M2 and X2 Y2;\nX2 or d e;\nY2 or d f;\n"
      "M3 and X3 Y3;\nX3 or g h;\nY3 or g i;\n"
      "a prob=0.1; b prob=0.2; c prob=0.3;\n"
      "d prob=0.1; e prob=0.05; f prob=0.02;\n"
      "g prob=0.15; h prob=0.25; i prob=0.05;\n");
}

// The headline differential: 100 generator seeds, each mutated through a
// random multi-step edit script, with every step's warm re-solve checked
// against a cold solve of the same tree. Each seed runs a random DAG and
// a closed-form top over modules that need search; the latter is also
// checked against the BDD, since its edits go through the module pass.
TEST(MutationDifferential, RandomEditScriptsMatchColdSolvesOn100Seeds) {
  const core::PipelineOptions opts;  // the default choice, incremental
  const core::MpmcsPipeline pipeline(opts);
  for (std::uint64_t run = 0; run < 200; ++run) {
    const std::uint64_t seed = run / 2;
    const bool composed = run % 2 == 1;
    gen::GeneratorOptions g;
    g.num_events = 10 + seed % 5;
    g.vote_fraction = 0.2;
    g.sharing = 0.2;
    ft::FaultTree tree =
        composed ? test::composed_tree(seed) : gen::random_tree(g, seed);
    core::PreparedInstance prepared = pipeline.prepare(tree);
    util::Rng rng(0xed17ull * (seed + 1));
    for (int step = 0; step < 3; ++step) {
      const std::string tag =
          "sp" + std::to_string(seed) + "x" + std::to_string(step);
      const ft::TreeDelta delta = random_delta(tree, rng, tag, true);
      ft::FaultTree next = ft::apply_delta(tree, delta);
      pipeline.apply_delta(next, delta, prepared);
      tree = std::move(next);

      const core::MpmcsSolution warm = pipeline.solve_prepared(tree, prepared);
      const core::MpmcsSolution cold = pipeline.solve(tree);
      const std::string context = "seed " + std::to_string(seed) +
                                  (composed ? " composed" : "") + " step " +
                                  std::to_string(step);
      expect_same_optimum(tree, warm, cold, opts.weight_scale, context);
      if (composed && warm.status == maxsat::MaxSatStatus::Optimal) {
        const auto best = bdd::FaultTreeBdd(tree).mpmcs();
        ASSERT_TRUE(best.has_value()) << context;
        EXPECT_NEAR(warm.probability, best->second,
                    1e-5 * best->second + 1e-300)
            << context;
      }
    }
  }
}

// Weight-only edits must re-solve with ZERO re-encoding: no cold prepare
// anywhere (the global prepare counter is the bench's proof too), and the
// incremental session is rebased, not rebuilt.
TEST(MutationDifferential, WeightOnlyEditsNeverColdPrepare) {
  const core::PipelineOptions opts;
  const core::MpmcsPipeline pipeline(opts);
  ft::FaultTree tree = modular_tree();
  core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_EQ(pipeline.solve_prepared(tree, prepared).status,
            maxsat::MaxSatStatus::Optimal);

  util::Rng rng(99);
  // Counted around apply_delta + solve_prepared only: the cold reference
  // solve() prepares by design.
  std::uint64_t warm_prepares = 0;
  for (int i = 0; i < 25; ++i) {
    ft::TreeDelta delta;
    const auto e = static_cast<ft::EventIndex>(rng.below(tree.num_events()));
    delta.ops.push_back(
        ft::TreeDelta::weight(tree.event(e).name, rng.uniform(0.02, 0.98)));
    if (rng.chance(0.3)) {
      const auto t =
          static_cast<ft::EventIndex>(rng.below(tree.num_events()));
      delta.ops.push_back(
          ft::TreeDelta::toggle(tree.event(t).name, rng.chance(0.8)));
    }
    ft::FaultTree next = ft::apply_delta(tree, delta);
    const std::uint64_t before = core::MpmcsPipeline::prepare_calls();
    const core::DeltaApplication stats =
        pipeline.apply_delta(next, delta, prepared);
    tree = std::move(next);
    EXPECT_TRUE(stats.weight_only);
    EXPECT_FALSE(stats.reprepared);
    EXPECT_TRUE(stats.session_rebased);

    const core::MpmcsSolution warm = pipeline.solve_prepared(tree, prepared);
    warm_prepares += core::MpmcsPipeline::prepare_calls() - before;
    // The warm solve ran no Step 3.5: it reports none (the prepare-time
    // figure would be stale).
    EXPECT_EQ(warm.preprocess_seconds, 0.0);
    const core::MpmcsSolution cold = pipeline.solve(tree);
    EXPECT_LE(cold.preprocess_seconds, cold.total_seconds);
    expect_same_optimum(tree, warm, cold, opts.weight_scale,
                        "weight-only edit " + std::to_string(i));
  }
  EXPECT_EQ(warm_prepares, 0u) << "a weight-only edit triggered a cold prepare";
}

// A splice inside one frontier module re-prepares exactly that module;
// the untouched modules' artefacts are shared as-is.
TEST(MutationDifferential, SingleModuleSpliceRepreparesOneStratum) {
  const core::PipelineOptions opts;
  const core::MpmcsPipeline pipeline(opts);
  const ft::FaultTree tree = modular_tree();
  core::PreparedInstance prepared = pipeline.prepare(tree);
  ASSERT_TRUE(prepared.strata && prepared.strata->applicable)
      << "test tree must have a closed-form top";
  ASSERT_EQ(prepared.strata->strata.size(), 3u);

  ft::TreeDelta delta;
  // Replacement leaves reuse existing events by name but take the
  // replacement's probability — restate d/e so only the shape changes.
  delta.ops.push_back(ft::TreeDelta::replace(
      "X2",
      "toplevel r2;\nr2 or d e g2x;\n"
      "d prob=0.1;\ne prob=0.05;\ng2x prob=0.15;\n"));
  const ft::FaultTree next = ft::apply_delta(tree, delta);

  const std::uint64_t before = core::MpmcsPipeline::prepare_calls();
  const core::DeltaApplication stats =
      pipeline.apply_delta(next, delta, prepared);
  EXPECT_EQ(core::MpmcsPipeline::prepare_calls() - before, 1u)
      << "exactly the spliced module should cold-prepare";
  EXPECT_FALSE(stats.weight_only);
  EXPECT_FALSE(stats.reprepared);
  EXPECT_EQ(stats.strata_total, 3u);
  EXPECT_EQ(stats.strata_reprepared, 1u);
  EXPECT_EQ(stats.strata_reused, 2u);

  const core::MpmcsSolution warm = pipeline.solve_prepared(next, prepared);
  const core::MpmcsSolution cold = pipeline.solve(next);
  expect_same_optimum(next, warm, cold, opts.weight_scale, "module splice");
}

// derive_prepared patches a COPY: the (cache-shared) base artefact keeps
// answering for the base tree, and the derived one for the edited tree.
TEST(MutationDifferential, DerivedArtefactLeavesSharedBaseIntact) {
  const core::PipelineOptions opts;
  const core::MpmcsPipeline pipeline(opts);
  const ft::FaultTree base_tree = modular_tree();
  const core::PreparedInstance base = pipeline.prepare(base_tree);

  ft::TreeDelta delta;
  delta.ops.push_back(ft::TreeDelta::weight("e", 0.9));
  delta.ops.push_back(ft::TreeDelta::weight("d", 0.8));
  const ft::FaultTree next = ft::apply_delta(base_tree, delta);

  core::DeltaApplication stats;
  const core::PreparedInstance derived =
      pipeline.derive_prepared(next, delta, base, &stats);
  EXPECT_TRUE(stats.weight_only);
  EXPECT_FALSE(stats.session_rebased)
      << "a shared base's session must never be rebased in place";
  EXPECT_EQ(stats.strata_reweighted, 1u);
  EXPECT_EQ(stats.strata_reused, 2u);

  expect_same_optimum(next, pipeline.solve_prepared(next, derived),
                      pipeline.solve(next), opts.weight_scale, "derived");
  expect_same_optimum(base_tree, pipeline.solve_prepared(base_tree, base),
                      pipeline.solve(base_tree), opts.weight_scale,
                      "base after derive");
}

// A long-lived session under a 1000-edit drift stream stays within its
// configured memory cap (the session sheds and lazily rebuilds engines —
// state is a cache, not required for correctness). The ladder is
// closed-form, so the paper's race solves it as one instance, on one
// session.
TEST(MutationDifferential, SessionMemoryBoundedAcross1000Edits) {
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Portfolio;
  opts.incremental_memory_cap_bytes = std::size_t{8} << 20;
  const core::MpmcsPipeline pipeline(opts);
  ft::FaultTree tree = gen::ladder_tree(3, 7);
  core::PreparedInstance prepared = pipeline.prepare(tree);

  util::Rng rng(0x5e55ull);
  for (int i = 0; i < 1000; ++i) {
    ft::TreeDelta delta;
    const auto e = static_cast<ft::EventIndex>(rng.below(tree.num_events()));
    delta.ops.push_back(
        ft::TreeDelta::weight(tree.event(e).name, rng.uniform(0.01, 0.99)));
    ft::FaultTree next = ft::apply_delta(tree, delta);
    pipeline.apply_delta(next, delta, prepared);
    tree = std::move(next);
    if (i % 10 == 0) {
      ASSERT_EQ(pipeline.solve_prepared(tree, prepared).status,
                maxsat::MaxSatStatus::Optimal)
          << "edit " << i;
    }
  }
  const core::MpmcsSolution last = pipeline.solve_prepared(tree, prepared);
  expect_same_optimum(tree, last, pipeline.solve(tree), opts.weight_scale,
                      "after 1000 edits");
  ASSERT_NE(prepared.session, nullptr);
  // Cap plus slack for engines rebuilt since the last shed.
  EXPECT_LE(prepared.session->memory_bytes_estimate(),
            2 * opts.incremental_memory_cap_bytes);
}

}  // namespace
}  // namespace fta
