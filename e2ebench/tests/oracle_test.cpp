// Tests of the benchmark's oracles: the dynamic programming and the
// evaluator against exhaustive search on small random models (votes,
// p = 0 and p = 1 events included), the document readers against the
// writers, and the Fig. 1 anchor.
//
//   python3 e2ebench/run.py --test
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "model.hpp"
#include "oracle.hpp"

namespace {

using namespace bench;

int failures = 0;

void expect_true(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool same_cost(const Cost& a, const Cost& b) {
  return a.impossible == b.impossible && std::fabs(a.log - b.log) <= 1e-9 * (1 + std::fabs(a.log));
}

/// A small random model with some events at p = 0 (disabled) or p = 1.
Model small_model(Rng& rng, bool shared) {
  const auto events = static_cast<std::uint32_t>(3 + rng() % 12);
  Model m = random_dag(rng, events, shared ? 0.3 : 0.0, 0.35);
  for (Node& n : m.nodes) {
    if (n.kind != Kind::Event) continue;
    const double coin = uniform(rng, 0, 1);
    if (coin < 0.08) n.enabled = false;
    else if (coin < 0.12) n.p = 1.0;
  }
  return m;
}

std::string seed_label(const char* what, int seed) {
  return std::string(what) + " (seed " + std::to_string(seed) + ")";
}

void dp_matches_exhaustive_on_trees() {
  for (int seed = 1; seed <= 400; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed));
    const Model m = small_model(rng, false);
    expect_true(m.tree_shaped(), seed_label("generator makes a tree", seed));
    const Exhaustive ex(m);
    expect_true(same_cost(dp_optimum(m), ex.costs.front()),
                seed_label("DP optimum equals exhaustive optimum", seed));
    const std::vector<Cost> top = dp_top_k(m, 5);
    const std::size_t n = std::min<std::size_t>(5, ex.costs.size());
    bool ok = top.size() == n;
    for (std::size_t i = 0; ok && i < n; ++i) ok = same_cost(top[i], ex.costs[i]);
    expect_true(ok, seed_label("k-best DP equals exhaustive top-5", seed));
  }
}

void dp_bounds_shared_models() {
  for (int seed = 1; seed <= 400; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 10000);
    const Model m = small_model(rng, true);
    const Exhaustive ex(m);
    const Cost dp = dp_optimum(m);
    expect_true(!cost_less(dp, ex.costs.front()) || same_cost(dp, ex.costs.front()),
                seed_label("DP never undercuts the shared optimum", seed));
  }
}

void evaluator_matches_exhaustive() {
  for (int seed = 1; seed <= 300; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 20000);
    const Model m = small_model(rng, seed % 2 == 0);
    const Exhaustive ex(m);
    const Evaluator ev(m);
    std::set<std::vector<std::uint32_t>> mcs;
    for (auto set : ex.mcs) {
      expect_true(ev.is_minimal_cut(set), seed_label("every MCS is minimal", seed));
      std::sort(set.begin(), set.end());
      mcs.insert(set);
    }
    const std::vector<std::uint32_t> events = m.events();
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<std::uint32_t> s;
      for (const std::uint32_t e : events) {
        if (rng() % 2) s.push_back(e);
      }
      std::sort(s.begin(), s.end());
      bool superset = false;
      for (const auto& c : mcs) {
        superset = superset || std::includes(s.begin(), s.end(), c.begin(), c.end());
      }
      expect_true(ev.is_cut(s) == superset, seed_label("cut iff superset of an MCS", seed));
      expect_true(ev.is_minimal_cut(s) == (mcs.count(s) > 0),
                  seed_label("minimal iff an MCS", seed));
    }
  }
}

void check_answer_rejects_wrong_answers() {
  Rng rng(7);
  for (int seed = 1; seed <= 100; ++seed) {
    const Model m = small_model(rng, seed % 2 == 0);
    const Exhaustive ex(m);
    const Evaluator ev(m);
    const Expected x = expect(m, 5);
    const auto answer = [&](const std::vector<std::uint32_t>& cut) {
      double p = 1.0, log = 0.0;
      for (const std::uint32_t e : cut) {
        p *= m.prob(e);
        if (m.prob(e) > 0) log -= std::log(m.prob(e));
      }
      return check_answer(m, ev, x, cut, p, log, 1e6);
    };
    expect_true(answer(ex.mcs.front()).empty(), seed_label("the optimum passes", seed));
    expect_true(check_top_k(m, ev, x,
                            std::vector<std::vector<std::uint32_t>>(
                                ex.mcs.begin(),
                                ex.mcs.begin() + static_cast<std::ptrdiff_t>(
                                                     std::min<std::size_t>(5, ex.mcs.size()))),
                            5, 1e6)
                    .empty(),
                seed_label("the exhaustive top-5 passes", seed));
    for (std::size_t i = 1; i < ex.mcs.size(); ++i) {
      if (cost_less(ex.costs.front(), ex.costs[i])) {
        expect_true(!answer(ex.mcs[i]).empty(), seed_label("a costlier MCS fails", seed));
        break;
      }
    }
    std::vector<std::uint32_t> all = m.events();
    if (all.size() > ex.mcs.front().size()) {
      expect_true(!answer(all).empty(), seed_label("a non-minimal cut fails", seed));
    }
  }
}

void readers_invert_writers() {
  for (int seed = 1; seed <= 50; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) + 30000);
    const Model m = random_dag(rng, static_cast<std::uint32_t>(20 + rng() % 200), 0.1, 0.2);
    for (const Model& back : {read_galileo(write_galileo(m)), read_open_psa(write_open_psa(m))}) {
      expect_true(back.events().size() == m.events().size(),
                  seed_label("reader keeps every event", seed));
      expect_true(same_cost(dp_optimum(back), dp_optimum(m)),
                  seed_label("reader keeps structure and probabilities", seed));
    }
  }
}

void fig1_anchor() {
  const std::string fps =
      "toplevel \"FPS_FAILS\";\n"
      "\"FPS_FAILS\" or \"DETECTION\" \"SUPPRESSION\";\n"
      "\"DETECTION\" and \"x1\" \"x2\";  // sensors\n"
      "\"SUPPRESSION\" or \"x3\" \"x4\" \"TRIGGER\";\n"
      "\"TRIGGER\" and \"x5\" \"REMOTE\";\n"
      "\"REMOTE\" or \"x6\" \"x7\";\n"
      "\"x1\" prob=0.2; \"x2\" prob=0.1; /* no water */ \"x3\" prob=0.001;\n"
      "\"x4\" prob=0.002; \"x5\" prob=0.05; \"x6\" prob=0.1; # comment\n"
      "\"x7\" lambda=0.05129329438755058;\n";
  const Model m = read_galileo(fps);
  const Exhaustive ex(m);
  std::vector<std::string> names;
  for (const std::uint32_t e : ex.mcs.front()) names.push_back(m.nodes[e].name);
  expect_true(check_fig1(names, std::exp(-ex.costs.front().log)).empty(),
              "Fig. 1 optimum is {x1, x2} with P = 0.02");
  expect_true(!check_fig1({"x1", "x3"}, 0.02).empty(), "Fig. 1 rejects another cut");
}

void vote_of_votes_optimum() {
  for (const std::uint32_t n : {10u, 12u, 16u}) {
    const Model m = vote_of_votes(n);
    // Independently: each subsystem's cheapest pair, then the two cheapest.
    std::vector<double> pairs;
    for (std::uint32_t i = 0; i < n; ++i) {
      std::vector<double> w;
      for (std::uint32_t j = 0; j < 3; ++j) {
        const std::string name = "e" + std::to_string(i) + "_" + std::to_string(j);
        w.push_back(-std::log(m.prob(static_cast<std::uint32_t>(m.find(name)))));
      }
      std::sort(w.begin(), w.end());
      pairs.push_back(w[0] + w[1]);
    }
    std::sort(pairs.begin(), pairs.end());
    expect_true(std::fabs(dp_optimum(m).log - (pairs[0] + pairs[1])) < 1e-12,
                "vote-of-votes optimum is the two cheapest subsystem pairs");
  }
}

}  // namespace

int main() {
  dp_matches_exhaustive_on_trees();
  dp_bounds_shared_models();
  evaluator_matches_exhaustive();
  check_answer_rejects_wrong_answers();
  readers_invert_writers();
  fig1_anchor();
  vote_of_votes_optimum();
  if (failures > 0) {
    std::fprintf(stderr, "oracle_test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("oracle_test: all checks passed\n");
  return 0;
}
