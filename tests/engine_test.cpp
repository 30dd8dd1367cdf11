#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

#include "bdd/fta_bdd.hpp"
#include "engine/analysis_engine.hpp"
#include "engine/tree_cache.hpp"
#include "ft/builder.hpp"
#include "gen/generator.hpp"
#include "sat/solver.hpp"
#include "util/thread_pool.hpp"

namespace fta::engine {
namespace {

using maxsat::MaxSatStatus;

ft::FaultTree generated_tree(std::uint64_t seed, std::uint32_t events = 40) {
  gen::GeneratorOptions g;
  g.num_events = events;
  g.vote_fraction = 0.1;
  g.sharing = 0.2;
  return gen::random_tree(g, seed);
}

/// Deterministic pipeline configuration (single OLL member, no racing):
/// batch and sequential runs must produce bit-identical solutions.
core::PipelineOptions deterministic_options() {
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;
  return opts;
}

TEST(ThreadPool, ExecutesEverySubmittedTask) {
  util::ThreadPool pool(4);
  std::atomic<int> sum{0};
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([i, &sum] {
      sum.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 100; ++i) EXPECT_EQ(futures[i].get(), i * i);
  EXPECT_EQ(sum.load(), 100);
  EXPECT_GE(pool.executed(), 100u);
}

TEST(ThreadPool, PropagatesExceptionsThroughFutures) {
  util::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(TreeCache, StructuralKeyIgnoresNamesButNotStructure) {
  const core::PipelineOptions opts;
  const ft::FaultTree original = ft::fire_protection_system();

  // The same shape and probabilities under entirely different names.
  ft::FaultTreeBuilder b;
  const auto y1 = b.event("sensorA", 0.2);
  const auto y2 = b.event("sensorB", 0.1);
  const auto y3 = b.event("noWater", 0.001);
  const auto y4 = b.event("nozzles", 0.002);
  const auto y5 = b.event("autoTrig", 0.05);
  const auto y6 = b.event("comms", 0.1);
  const auto y7 = b.event("ddos", 0.05);
  const auto det = b.and_("DET2", {y1, y2});
  const auto rem = b.or_("REM2", {y6, y7});
  const auto trig = b.and_("TRIG2", {y5, rem});
  const auto sup = b.or_("SUP2", {y3, y4, trig});
  b.top(b.or_("TOP2", {det, sup}));
  const ft::FaultTree renamed = std::move(b).build();

  EXPECT_EQ(structural_key(original, opts), structural_key(renamed, opts));

  // A changed probability is a different instance.
  ft::FaultTree perturbed = ft::fire_protection_system();
  perturbed.set_event_probability(0, 0.25);
  EXPECT_NE(structural_key(original, opts), structural_key(perturbed, opts));

  // Changed transformation options are a different instance, too.
  core::PipelineOptions scaled = opts;
  scaled.weight_scale = 1e7;
  EXPECT_NE(structural_key(original, opts), structural_key(original, scaled));
}

TEST(TreeCache, LruEvictsOldestEntry) {
  TreeCache cache(2);
  const auto prepared = std::make_shared<const PreparedTree>();
  cache.insert("a", prepared);
  cache.insert("b", prepared);
  ASSERT_NE(cache.find("a"), nullptr);  // refreshes "a"
  cache.insert("c", prepared);          // evicts "b"
  EXPECT_NE(cache.find("a"), nullptr);
  EXPECT_EQ(cache.find("b"), nullptr);
  EXPECT_NE(cache.find("c"), nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(AnalysisEngine, BatchMatchesSequential) {
  const core::PipelineOptions popts = deterministic_options();
  std::vector<ft::FaultTree> trees;
  trees.push_back(ft::fire_protection_system());
  for (std::uint64_t seed = 1; seed <= 9; ++seed) {
    trees.push_back(generated_tree(seed));
  }

  // Sequential reference, straight through the pipeline.
  const core::MpmcsPipeline pipeline(popts);
  std::vector<core::MpmcsSolution> expected;
  for (const auto& tree : trees) expected.push_back(pipeline.solve(tree));

  EngineOptions eopts;
  eopts.num_threads = 4;
  AnalysisEngine engine(eopts);
  std::vector<AnalysisRequest> batch;
  for (std::size_t i = 0; i < trees.size(); ++i) {
    AnalysisRequest req;
    req.id = "tree-" + std::to_string(i);
    req.tree = trees[i];
    req.pipeline = popts;
    batch.push_back(std::move(req));
  }
  const auto results = engine.run_batch(std::move(batch));

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].id << ": " << results[i].error;
    EXPECT_EQ(results[i].id, "tree-" + std::to_string(i));
    ASSERT_EQ(results[i].mpmcs.status, expected[i].status);
    EXPECT_EQ(results[i].mpmcs.cut, expected[i].cut);
    EXPECT_DOUBLE_EQ(results[i].mpmcs.probability, expected[i].probability);
  }
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.submitted, trees.size());
  EXPECT_EQ(stats.completed, trees.size());
}

TEST(AnalysisEngine, CacheHitsOnStructurallyIdenticalTrees) {
  EngineOptions eopts;
  eopts.num_threads = 2;
  AnalysisEngine engine(eopts);

  // Four copies of the same model (as a monitoring loop would submit),
  // plus one structurally different tree.
  std::vector<AnalysisRequest> batch;
  for (int i = 0; i < 4; ++i) {
    AnalysisRequest req;
    req.id = "fps-" + std::to_string(i);
    req.tree = ft::fire_protection_system();
    req.pipeline = deterministic_options();
    batch.push_back(std::move(req));
  }
  AnalysisRequest other;
  other.id = "other";
  other.tree = generated_tree(42, 20);
  other.pipeline = deterministic_options();
  batch.push_back(std::move(other));

  const auto results = engine.run_batch(std::move(batch));
  ASSERT_EQ(results.size(), 5u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.id << ": " << r.error;
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(results[i].mpmcs.cut, ft::CutSet({0, 1}));
    EXPECT_NEAR(results[i].mpmcs.probability, 0.02, 1e-12);
  }

  // Exactly two distinct structures were transformed; with concurrent
  // workers several misses can race on the same key before the first
  // insert lands, so hits is a lower bound and misses an upper bound.
  const EngineStats stats = engine.stats();
  EXPECT_GE(stats.cache_hits + stats.cache_misses, 5u);
  EXPECT_GE(stats.cache_misses, 2u);

  // A second identical submission is warm for sure.
  AnalysisRequest again;
  again.id = "fps-again";
  again.tree = ft::fire_protection_system();
  again.pipeline = deterministic_options();
  const AnalysisResult result = engine.submit(std::move(again)).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.cache_hit);
  EXPECT_NEAR(result.mpmcs.probability, 0.02, 1e-12);
}

TEST(AnalysisEngine, TopKSharesTheCachedPreparedArtefact) {
  // Top-k requests route through the same structural-cache artefact as
  // MPMCS traffic (ROADMAP "session-aware engine memoization"): after an
  // MPMCS solve on a structure, a TopK request on the same structure is
  // a cache hit — and its first entry agrees with the memoized MPMCS.
  EngineOptions eopts;
  eopts.num_threads = 1;
  AnalysisEngine engine(eopts);

  AnalysisRequest warm;
  warm.id = "warm";
  warm.tree = ft::fire_protection_system();
  warm.pipeline = deterministic_options();
  const AnalysisResult first = engine.submit(std::move(warm)).get();
  ASSERT_TRUE(first.ok) << first.error;

  AnalysisRequest topk;
  topk.id = "topk";
  topk.tree = ft::fire_protection_system();
  topk.kind = AnalysisKind::TopK;
  topk.top_k = 3;
  topk.pipeline = deterministic_options();
  const AnalysisResult enumerated = engine.submit(std::move(topk)).get();
  ASSERT_TRUE(enumerated.ok) << enumerated.error;
  EXPECT_TRUE(enumerated.cache_hit);
  ASSERT_EQ(enumerated.top.size(), 3u);
  EXPECT_NEAR(enumerated.top[0].probability, first.mpmcs.probability, 1e-12);

  // And a TopK miss populates the cache for later MPMCS traffic too.
  AnalysisRequest cold;
  cold.id = "cold-topk";
  cold.tree = generated_tree(7, 25);
  cold.kind = AnalysisKind::TopK;
  cold.pipeline = deterministic_options();
  const AnalysisResult cold_topk = engine.submit(std::move(cold)).get();
  ASSERT_TRUE(cold_topk.ok) << cold_topk.error;
  EXPECT_FALSE(cold_topk.cache_hit);

  AnalysisRequest reuse;
  reuse.id = "reuse";
  reuse.tree = generated_tree(7, 25);
  reuse.pipeline = deterministic_options();
  const AnalysisResult reused = engine.submit(std::move(reuse)).get();
  ASSERT_TRUE(reused.ok) << reused.error;
  EXPECT_TRUE(reused.cache_hit);
}

TEST(AnalysisEngine, MemoizationReusesSolutionsPerSolverConfig) {
  EngineOptions eopts;
  eopts.num_threads = 1;
  eopts.memoize_results = true;
  AnalysisEngine engine(eopts);

  const auto make_request = [](core::SolverChoice solver) {
    AnalysisRequest req;
    req.id = "memo";
    req.tree = ft::fire_protection_system();
    req.pipeline.solver = solver;
    return req;
  };

  const AnalysisResult first =
      engine.submit(make_request(core::SolverChoice::Oll)).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.memoized);

  const AnalysisResult second =
      engine.submit(make_request(core::SolverChoice::Oll)).get();
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.memoized);
  EXPECT_EQ(second.mpmcs.cut, first.mpmcs.cut);
  EXPECT_DOUBLE_EQ(second.mpmcs.probability, first.mpmcs.probability);

  // A different solver configuration must not reuse the OLL memo entry
  // (same structure, so the artefact tier still hits).
  const AnalysisResult lsu =
      engine.submit(make_request(core::SolverChoice::Lsu)).get();
  ASSERT_TRUE(lsu.ok) << lsu.error;
  EXPECT_FALSE(lsu.memoized);
  EXPECT_TRUE(lsu.cache_hit);
  EXPECT_DOUBLE_EQ(lsu.mpmcs.probability, first.mpmcs.probability);
  EXPECT_EQ(engine.stats().memo_hits, 1u);

  // With memoization off, repeated structures re-solve every time.
  EngineOptions plain;
  plain.num_threads = 1;
  plain.memoize_results = false;
  AnalysisEngine no_memo(plain);
  (void)no_memo.submit(make_request(core::SolverChoice::Oll)).get();
  const AnalysisResult resolved =
      no_memo.submit(make_request(core::SolverChoice::Oll)).get();
  EXPECT_FALSE(resolved.memoized);
  EXPECT_TRUE(resolved.cache_hit);
  EXPECT_EQ(no_memo.stats().memo_hits, 0u);
}

TEST(AnalysisEngine, RepeatedTopKReplaysWithZeroSatWork) {
  // The third cache tier: a completed top-k enumeration under the same
  // (structure, solver configuration, k) replays from the memo without a
  // single SAT call — proven by diffing the solver's process-wide solve
  // counter around the repeat, not by trusting the `memoized` flag.
  EngineOptions eopts;
  eopts.num_threads = 1;
  eopts.memoize_results = true;
  AnalysisEngine engine(eopts);

  const auto make_request = [](std::size_t k) {
    AnalysisRequest req;
    req.id = "topk-memo";
    req.tree = ft::fire_protection_system();
    req.kind = AnalysisKind::TopK;
    req.top_k = k;
    req.pipeline = deterministic_options();
    return req;
  };

  const AnalysisResult first = engine.submit(make_request(4)).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.memoized);
  ASSERT_EQ(first.top.size(), 4u);

  const std::uint64_t sat_calls_before = sat::Solver::global_solve_calls();
  const AnalysisResult replay = engine.submit(make_request(4)).get();
  ASSERT_TRUE(replay.ok) << replay.error;
  EXPECT_TRUE(replay.memoized);
  EXPECT_TRUE(replay.cache_hit);
  EXPECT_EQ(sat::Solver::global_solve_calls(), sat_calls_before);
  ASSERT_EQ(replay.top.size(), first.top.size());
  for (std::size_t i = 0; i < first.top.size(); ++i) {
    EXPECT_EQ(replay.top[i].cut, first.top[i].cut) << "rank " << i;
    EXPECT_DOUBLE_EQ(replay.top[i].probability, first.top[i].probability)
        << "rank " << i;
  }

  // A different k is a different memo entry: the k=4 sequence is not a
  // valid k=2 answer (tie-breaking may differ), so the engine re-solves.
  const AnalysisResult shorter = engine.submit(make_request(2)).get();
  ASSERT_TRUE(shorter.ok) << shorter.error;
  EXPECT_FALSE(shorter.memoized);
  EXPECT_GT(sat::Solver::global_solve_calls(), sat_calls_before);
  ASSERT_EQ(shorter.top.size(), 2u);
  EXPECT_DOUBLE_EQ(shorter.top[0].probability, first.top[0].probability);

  // ... and the shorter sequence now replays too.
  const std::uint64_t sat_calls_after_k2 = sat::Solver::global_solve_calls();
  const AnalysisResult replay_k2 = engine.submit(make_request(2)).get();
  ASSERT_TRUE(replay_k2.ok) << replay_k2.error;
  EXPECT_TRUE(replay_k2.memoized);
  EXPECT_EQ(sat::Solver::global_solve_calls(), sat_calls_after_k2);
}

TEST(AnalysisEngine, SolverAttributionStableUnderMemoization) {
  // The batch CLI surfaces per-tree attribution (winning member +
  // lineage); memoized repeats must replay the stored attribution instead
  // of re-racing and possibly re-rolling the winner.
  EngineOptions eopts;
  eopts.num_threads = 1;
  eopts.memoize_results = true;
  AnalysisEngine engine(eopts);

  const auto make_request = [] {
    AnalysisRequest req;
    req.id = "attr";
    req.tree = generated_tree(21);
    req.pipeline.solver = core::SolverChoice::Portfolio;
    return req;
  };
  const AnalysisResult first = engine.submit(make_request()).get();
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.memoized);
  EXPECT_FALSE(first.mpmcs.solver_name.empty());
  EXPECT_EQ(first.mpmcs.lineage, "pre");

  const AnalysisResult repeat = engine.submit(make_request()).get();
  ASSERT_TRUE(repeat.ok) << repeat.error;
  EXPECT_TRUE(repeat.memoized);
  EXPECT_EQ(repeat.mpmcs.solver_name, first.mpmcs.solver_name);
  EXPECT_EQ(repeat.mpmcs.lineage, first.mpmcs.lineage);
}

TEST(AnalysisEngine, RaceReusesOnePreparedArtefact) {
  // A race must not duplicate preparation work: every member solves the
  // PreparedInstance's own Step 3.5 instance, so a structurally repeated
  // request hits the artefact cache.
  EngineOptions eopts;
  eopts.num_threads = 1;
  eopts.memoize_results = false;  // force both requests through Step 5
  AnalysisEngine engine(eopts);

  const auto make_request = [] {
    AnalysisRequest req;
    req.id = "race";
    req.tree = generated_tree(22);
    req.pipeline.solver = core::SolverChoice::Portfolio;
    return req;
  };
  const AnalysisResult cold = engine.submit(make_request()).get();
  ASSERT_TRUE(cold.ok) << cold.error;
  EXPECT_FALSE(cold.cache_hit);
  const AnalysisResult warm = engine.submit(make_request()).get();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_FALSE(warm.memoized);
  EXPECT_DOUBLE_EQ(warm.mpmcs.probability, cold.mpmcs.probability);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.cache_misses, 1u);  // prepared once, raced twice
  EXPECT_GE(stats.cache_hits, 1u);
}

TEST(AnalysisEngine, ModulePassGetsItsOwnArtefactAndLineage) {
  // The module pass rides on the PreparedInstance, so the structural key
  // must separate the default's artefacts from monolithic ones...
  const auto ladder = gen::ladder_tree(6, 19);
  const core::PipelineOptions strat;
  EXPECT_NE(structural_key(ladder, strat),
            structural_key(ladder, deterministic_options()));

  // ...and engine traffic through the default composes the closed-form
  // ladder (lineage "strata") into the monolithic answer.
  EngineOptions eopts;
  eopts.num_threads = 1;
  AnalysisEngine engine(eopts);
  AnalysisRequest mono;
  mono.id = "mono";
  mono.tree = ladder;
  mono.pipeline = deterministic_options();
  AnalysisRequest strat_req;
  strat_req.id = "strat";
  strat_req.tree = ladder;
  strat_req.pipeline = strat;
  auto results = engine.run_batch([&] {
    std::vector<AnalysisRequest> reqs;
    reqs.push_back(std::move(mono));
    reqs.push_back(std::move(strat_req));
    return reqs;
  }());
  ASSERT_TRUE(results[0].ok) << results[0].error;
  ASSERT_TRUE(results[1].ok) << results[1].error;
  EXPECT_EQ(results[1].mpmcs.solver_name, "stratified");
  EXPECT_EQ(results[1].mpmcs.lineage, "strata");
  EXPECT_DOUBLE_EQ(results[1].mpmcs.probability, results[0].mpmcs.probability);
  EXPECT_EQ(results[1].mpmcs.cut, results[0].mpmcs.cut);
}

TEST(AnalysisEngine, ExpiredTimeoutCancelsRequest) {
  EngineOptions eopts;
  eopts.num_threads = 1;
  AnalysisEngine engine(eopts);

  AnalysisRequest req;
  req.id = "doomed";
  req.tree = generated_tree(7, 300);
  req.pipeline = deterministic_options();
  req.timeout_seconds = 1e-9;  // expired before the worker even starts
  const AnalysisResult result = engine.submit(std::move(req)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_TRUE(result.cancelled);
  EXPECT_TRUE(result.error.empty()) << result.error;
  EXPECT_EQ(result.mpmcs.status, MaxSatStatus::Unknown);
  EXPECT_EQ(engine.stats().cancelled, 1u);
}

TEST(AnalysisEngine, CancelAllStopsQueuedRequests) {
  EngineOptions eopts;
  eopts.num_threads = 1;  // serialise: later requests are surely queued
  AnalysisEngine engine(eopts);

  // Trees big enough that one solve (tens of ms) far outlasts the gap
  // between the last submit and cancel_all below: the single worker is
  // still inside an early request when the cancel lands, so the later
  // requests are observed as cancelled while still queued.
  std::vector<std::future<AnalysisResult>> futures;
  for (int i = 0; i < 6; ++i) {
    AnalysisRequest req;
    req.id = "batch-" + std::to_string(i);
    req.tree = generated_tree(100 + static_cast<std::uint64_t>(i), 4000);
    req.pipeline = deterministic_options();
    futures.push_back(engine.submit(std::move(req)));
  }
  engine.cancel_all();
  std::size_t cancelled = 0;
  for (auto& f : futures) {
    const AnalysisResult r = f.get();  // must not hang
    EXPECT_TRUE(r.ok || r.cancelled) << r.id << ": " << r.error;
    if (r.cancelled) ++cancelled;
  }
  EXPECT_GE(cancelled, 4u);

  // The engine stays usable: a fresh submission runs under a new token.
  AnalysisRequest after;
  after.id = "after-cancel";
  after.tree = ft::fire_protection_system();
  after.pipeline = deterministic_options();
  const AnalysisResult r = engine.submit(std::move(after)).get();
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_NEAR(r.mpmcs.probability, 0.02, 1e-12);
}

TEST(AnalysisEngine, InvalidTreeReportsErrorNotCrash) {
  AnalysisEngine engine;
  AnalysisRequest req;
  req.id = "invalid";
  // No top event set: validate() must throw and the engine must report it.
  const AnalysisResult result = engine.submit(std::move(req)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_FALSE(result.cancelled);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(engine.stats().failed, 1u);
}

TEST(AnalysisEngine, TopKImportanceAndQuantitativeKinds) {
  AnalysisEngine engine;
  const ft::FaultTree tree = ft::fire_protection_system();

  AnalysisRequest topk;
  topk.id = "topk";
  topk.tree = tree;
  topk.kind = AnalysisKind::TopK;
  topk.top_k = 3;
  topk.pipeline = deterministic_options();

  AnalysisRequest imp;
  imp.id = "importance";
  imp.tree = tree;
  imp.kind = AnalysisKind::Importance;

  AnalysisRequest quant;
  quant.id = "quantitative";
  quant.tree = tree;
  quant.kind = AnalysisKind::Quantitative;

  std::vector<AnalysisRequest> batch;
  batch.push_back(std::move(topk));
  batch.push_back(std::move(imp));
  batch.push_back(std::move(quant));
  const auto results = engine.run_batch(std::move(batch));
  ASSERT_EQ(results.size(), 3u);
  for (const auto& r : results) ASSERT_TRUE(r.ok) << r.id << ": " << r.error;

  // Top-3: probabilities descend and the first is the MPMCS.
  ASSERT_EQ(results[0].top.size(), 3u);
  EXPECT_NEAR(results[0].top[0].probability, 0.02, 1e-12);
  EXPECT_GE(results[0].top[0].probability, results[0].top[1].probability);
  EXPECT_GE(results[0].top[1].probability, results[0].top[2].probability);

  // Importance: one entry per event.
  EXPECT_EQ(results[1].importance.size(), tree.num_events());

  // Quantitative: matches the exact BDD computation.
  bdd::FaultTreeBdd reference(tree);
  EXPECT_NEAR(results[2].quantitative.top_probability,
              reference.top_probability(), 1e-12);
  EXPECT_EQ(results[2].quantitative.events, tree.num_events());
}

TEST(AnalysisEngine, PipelineSolveAsyncOutlivesItsInputs) {
  std::future<core::MpmcsSolution> future;
  {
    const core::MpmcsPipeline pipeline(deterministic_options());
    future = pipeline.solve_async(ft::fire_protection_system());
  }  // both the pipeline and the temporary tree are gone before get()
  const core::MpmcsSolution sol = future.get();
  ASSERT_EQ(sol.status, MaxSatStatus::Optimal);
  EXPECT_NEAR(sol.probability, 0.02, 1e-12);
}

TEST(AnalysisEngine, DifferentialAgainstBddAndBruteForce) {
  // Property check on small random trees: the engine's MaxSAT-based MPMCS
  // probability must match both the BDD backend and exhaustive MaxSAT.
  EngineOptions eopts;
  eopts.num_threads = 2;
  AnalysisEngine engine(eopts);

  core::PipelineOptions brute = deterministic_options();
  brute.solver = core::SolverChoice::BruteForce;

  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    gen::GeneratorOptions g;
    g.num_events = 8;  // small enough for 2^vars enumeration
    g.vote_fraction = seed % 2 == 0 ? 0.2 : 0.0;
    g.sharing = 0.15;
    const ft::FaultTree tree = gen::random_tree(g, seed);

    AnalysisRequest req;
    req.id = "diff-" + std::to_string(seed);
    req.tree = tree;
    req.pipeline = deterministic_options();
    const AnalysisResult result = engine.submit(std::move(req)).get();
    ASSERT_TRUE(result.ok) << result.id << ": " << result.error;
    ASSERT_EQ(result.mpmcs.status, MaxSatStatus::Optimal);
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, result.mpmcs.cut)) << seed;

    bdd::FaultTreeBdd reference(tree);
    const auto bdd_mpmcs = reference.mpmcs();
    ASSERT_TRUE(bdd_mpmcs.has_value()) << seed;
    EXPECT_NEAR(result.mpmcs.probability, bdd_mpmcs->second, 1e-9) << seed;

    const core::MpmcsPipeline brute_pipeline(brute);
    const core::MpmcsSolution exhaustive = brute_pipeline.solve(tree);
    if (exhaustive.status == MaxSatStatus::Optimal) {
      EXPECT_NEAR(result.mpmcs.probability, exhaustive.probability, 1e-9)
          << seed;
    }
  }
}

}  // namespace
}  // namespace fta::engine
