// Stress and failure-injection tests: deep/wide structures, adversarial
// parser inputs, cancellation races, and budget exhaustion paths.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "bdd/fta_bdd.hpp"
#include "core/pipeline.hpp"
#include "format/format.hpp"
#include "ft/json_writer.hpp"
#include "ft/parser.hpp"
#include "gen/generator.hpp"
#include "logic/tseitin.hpp"
#include "maxsat/oll.hpp"
#include "maxsat/portfolio.hpp"
#include "sat/solver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace fta {
namespace {

TEST(Stress, VeryDeepChainDoesNotOverflowStack) {
  // 20k alternating gates: every traversal in the library must be
  // iterative (formula build, Tseitin, stats, BDD would be the exception
  // and is not exercised here).
  const auto tree = gen::chain_tree(20'000, 1);
  EXPECT_EQ(tree.stats().max_depth, 19'999u);
  logic::FormulaStore store;
  const auto f = tree.to_formula(store);
  auto ts = logic::tseitin(store, f, true);
  EXPECT_GT(ts.cnf.num_clauses(), 20'000u);
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;
  const auto sol = core::MpmcsPipeline(opts).solve(tree);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
}

TEST(Stress, MillionEventChainComposesWithoutRecursion) {
  // Every gate of a chain is closed-form: the default's module pass
  // (modules, plan, composition, cut extraction) walks 2 * 10^6 nodes
  // with explicit stacks and no SAT call.
  const auto tree = gen::chain_tree(1'000'000, 5);
  const std::uint64_t sat_calls = sat::Solver::global_solve_calls();
  const auto sol = core::MpmcsPipeline().solve(tree);
  EXPECT_EQ(sat::Solver::global_solve_calls(), sat_calls);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_EQ(sol.solver_name, "stratified");
  // The chain's optimum by its own recurrence: an AND level adds the
  // fresh event, an OR level keeps the cheaper of the two.
  double best = -std::log(tree.event_probability(0));
  for (ft::EventIndex e = 1; e < tree.num_events(); ++e) {
    const double w = -std::log(tree.event_probability(e));
    best = e % 2 == 1 ? best + w : std::min(best, w);
  }
  EXPECT_NEAR(sol.log_cost, best, 1e-6 * (1.0 + best) * sol.cut.size());
  EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
}

/// A 10^6-event chain as one compact document; the gates come top first,
/// so every reference is to a gate not yet declared.
std::string chain_document(const ft::FaultTree& t, format::TreeFormat fmt) {
  std::string out;
  out.reserve(t.num_nodes() * 64);
  char prob[32];
  const auto p = [&](const ft::Node& n) {
    std::snprintf(prob, sizeof prob, "%.17g", n.probability);
    return prob;
  };
  const auto gate = [&](const ft::Node& n) {
    return n.type == ft::NodeType::And ? "and" : "or";
  };
  const std::string& top = t.node(t.top()).name;
  if (fmt == format::TreeFormat::Galileo) {
    out += "toplevel " + top + ";\n";
    for (ft::NodeIndex i = t.num_nodes(); i-- > 0;) {
      const ft::Node& n = t.node(i);
      out += n.name;
      if (n.type == ft::NodeType::BasicEvent) {
        (out += " prob=") += p(n);
      } else {
        (out += ' ') += gate(n);
        for (const ft::NodeIndex c : n.children) (out += ' ') += t.node(c).name;
      }
      out += ";\n";
    }
  } else if (fmt == format::TreeFormat::OpenPsa) {
    out += "<opsa-mef><define-fault-tree name=\"chain\">\n";
    for (ft::NodeIndex i = t.num_nodes(); i-- > 0;) {
      const ft::Node& n = t.node(i);
      if (n.type == ft::NodeType::BasicEvent) continue;
      ((out += "<define-gate name=\"") += n.name) += "\"><";
      (out += gate(n)) += '>';
      for (const ft::NodeIndex c : n.children) {
        const ft::Node& child = t.node(c);
        out += child.type == ft::NodeType::BasicEvent ? "<basic-event name=\""
                                                      : "<gate name=\"";
        (out += child.name) += "\"/>";
      }
      ((out += "</") += gate(n)) += "></define-gate>\n";
    }
    out += "</define-fault-tree><model-data>\n";
    for (ft::EventIndex e = 0; e < t.num_events(); ++e) {
      ((out += "<define-basic-event name=\"") += t.event(e).name) +=
          "\"><float value=\"";
      (out += p(t.event(e))) += "\"/></define-basic-event>\n";
    }
    out += "</model-data></opsa-mef>\n";
  } else {
    ((out += "{\"top\": \"") += top) += "\", \"nodes\": [\n";
    for (ft::NodeIndex i = t.num_nodes(); i-- > 0;) {
      const ft::Node& n = t.node(i);
      ((out += "{\"id\": \"") += n.name) += "\", ";
      if (n.type == ft::NodeType::BasicEvent) {
        (out += "\"type\": \"event\", \"prob\": ") += p(n);
      } else {
        ((out += "\"type\": \"") += gate(n)) += "\", \"children\": [";
        for (std::size_t c = 0; c < n.children.size(); ++c) {
          ((out += c ? ", \"" : "\"") += t.node(n.children[c]).name) += '"';
        }
        out += ']';
      }
      out += i ? "},\n" : "}\n";
    }
    out += "]}\n";
  }
  return out;
}

TEST(Stress, MillionEventChainReadsAndWritesInEveryFormat) {
  // Each reader resolves a 10^6-deep chain with explicit stacks, and the
  // Fig. 2 writer writes it. The source tree is rebuilt per format so
  // that only one document and one parsed tree are alive at a time.
  constexpr std::uint32_t kEvents = 1'000'000;
  std::size_t nodes = 0;
  std::uint64_t first_bits = 0, last_bits = 0;
  ft::FaultTree back;
  for (const auto fmt :
       {format::TreeFormat::Galileo, format::TreeFormat::OpenPsa,
        format::TreeFormat::Json}) {
    back = ft::FaultTree();
    std::string doc;
    {
      const ft::FaultTree tree = gen::chain_tree(kEvents, 13);
      nodes = tree.num_nodes();
      first_bits = std::bit_cast<std::uint64_t>(tree.event_probability(0));
      last_bits =
          std::bit_cast<std::uint64_t>(tree.event_probability(kEvents - 1));
      doc = chain_document(tree, fmt);
    }
    back = format::parse_tree(doc, {fmt});
    doc = std::string();
    const char* name = format::format_name(fmt);
    ASSERT_EQ(back.num_nodes(), nodes) << name;
    ASSERT_EQ(back.num_events(), kEvents) << name;
    EXPECT_EQ(back.stats().max_depth, kEvents - 1) << name;
    EXPECT_EQ(back.node(back.top()).name, "g999999") << name;
    const auto bits = [&](const char* event) {
      const ft::Node& n = back.node(back.find(event));
      return std::bit_cast<std::uint64_t>(n.probability);
    };
    EXPECT_EQ(bits("e0"), first_bits) << name;
    EXPECT_EQ(bits("e999999"), last_bits) << name;
  }
  ft::JsonSolution sol;
  sol.mpmcs = ft::CutSet({0, 1});
  sol.probability = 0.25;
  const std::string fig2 = ft::to_json(back, sol);
  EXPECT_EQ(fig2.back(), '\n');
  std::size_t marked = 0;
  for (std::size_t at = 0;
       (at = fig2.find("\"inMpmcs\": true", at)) != std::string::npos; ++at) {
    ++marked;
  }
  EXPECT_EQ(marked, 2u);
}

TEST(Stress, VeryWideGate) {
  // A single OR over 50k events; and an AND over 10k.
  ft::FaultTree wide_or;
  std::vector<ft::NodeIndex> events;
  util::Rng rng(3);
  for (int i = 0; i < 50'000; ++i) {
    events.push_back(wide_or.add_basic_event("e" + std::to_string(i),
                                             rng.uniform(0.001, 0.2)));
  }
  wide_or.set_top(wide_or.add_gate("TOP", ft::NodeType::Or, std::move(events)));
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;
  const auto sol = core::MpmcsPipeline(opts).solve(wide_or);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  ASSERT_EQ(sol.cut.size(), 1u);
  // The singleton must be the most probable event.
  double best = 0;
  for (ft::EventIndex e = 0; e < wide_or.num_events(); ++e) {
    best = std::max(best, wide_or.event_probability(e));
  }
  EXPECT_NEAR(sol.probability, best, 1e-12);
}

TEST(Stress, WideAndGateSingleCut) {
  ft::FaultTree wide_and;
  std::vector<ft::NodeIndex> events;
  for (int i = 0; i < 10'000; ++i) {
    events.push_back(wide_and.add_basic_event("e" + std::to_string(i), 0.5));
  }
  wide_and.set_top(
      wide_and.add_gate("TOP", ft::NodeType::And, std::move(events)));
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;
  const auto sol = core::MpmcsPipeline(opts).solve(wide_and);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut.size(), 10'000u);
}

TEST(Stress, MidVoteGateViaLsu) {
  // A single wide k-of-n gate whose optimum needs k simultaneous events
  // with near-tied distinct weights is THE adversarial shape for
  // core-guided MaxSAT (weight splitting degrades the per-core bound
  // increment towards 1 scaled unit). LSU, by contrast, closes it in a
  // handful of model-improving calls — the solver complementarity that
  // motivates the paper's Step-5 portfolio. Use LSU here and cross-check
  // against the exact BDD.
  ft::FaultTree t;
  std::vector<ft::NodeIndex> events;
  util::Rng rng(5);
  for (int i = 0; i < 14; ++i) {
    events.push_back(
        t.add_basic_event("e" + std::to_string(i), rng.uniform(0.05, 0.6)));
  }
  t.set_top(t.add_vote_gate("V", 7, std::move(events)));
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Lsu;
  const auto sol = core::MpmcsPipeline(opts).solve(t);
  ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal);
  EXPECT_EQ(sol.cut.size(), 7u);
  EXPECT_TRUE(ft::is_minimal_cut_set(t, sol.cut));
  // Exact probability argmax, against the BDD.
  bdd::FaultTreeBdd baseline(t);
  EXPECT_NEAR(sol.probability, baseline.mpmcs()->second,
              1e-5 * sol.probability);
}

TEST(Stress, ParserRejectsGarbageWithoutCrashing) {
  const char* bad_docs[] = {
      "", ";", "toplevel;", "toplevel a b;", "x prob=;", "x prob=0.5",
      "toplevel T; T xor a b;", "toplevel T; T and;", "\"unterminated",
      "toplevel T; T 0of2 a b;", "toplevel T; T 3of2 a b;",
      "toplevel T; T and a b; a prob=2.0;",
      "toplevel T; T and a b; a prob=-1;",
      "toplevel T; T and T;",  // self-cycle
  };
  for (const char* doc : bad_docs) {
    EXPECT_THROW(ft::parse_fault_tree(doc), std::exception)
        << "accepted: " << doc;
  }
}

TEST(Stress, ParserFuzzRandomTokens) {
  // Random token soup must either parse (unlikely) or throw ParseError /
  // ValidationError — never crash or hang.
  util::Rng rng(1337);
  const char* tokens[] = {"toplevel", "and", "or", "2of3", "prob=0.5",
                          "a",        "b",   "c",  ";",    "\"q\"",
                          "prob=x",   "//c", "0"};
  for (int round = 0; round < 300; ++round) {
    std::string doc;
    const std::size_t len = rng.below(30);
    for (std::size_t i = 0; i < len; ++i) {
      doc += tokens[rng.below(std::size(tokens))];
      doc += rng.chance(0.3) ? "\n" : " ";
    }
    try {
      const auto tree = ft::parse_fault_tree(doc);
      tree.validate();
    } catch (const std::exception&) {
      // expected for nearly every round
    }
  }
  SUCCEED();
}

TEST(Stress, PortfolioTimeoutReturnsPromptly) {
  gen::GeneratorOptions gopts;
  gopts.num_events = 2000;
  gopts.and_fraction = 0.6;
  const auto tree = gen::random_tree(gopts, 77);
  core::PipelineOptions opts;
  opts.timeout_seconds = 0.01;  // far below the instance's solve time? may
                                // still win: both outcomes legal
  util::Timer timer;
  const auto sol = core::MpmcsPipeline(opts).solve(tree);
  // Either it finished fast (Optimal) or timed out (Unknown) — but it must
  // return in bounded time and never report a wrong optimum.
  EXPECT_LT(timer.seconds(), 30.0);
  if (sol.status == maxsat::MaxSatStatus::Optimal) {
    EXPECT_TRUE(ft::is_minimal_cut_set(tree, sol.cut));
  }
}

TEST(Stress, CancellationFromAnotherThread) {
  gen::GeneratorOptions gopts;
  gopts.num_events = 5000;
  gopts.and_fraction = 0.6;
  const auto tree = gen::random_tree(gopts, 88);
  const auto instance = core::MpmcsPipeline().build_instance(tree);
  auto token = std::make_shared<util::CancelToken>();
  maxsat::OllSolver solver;
  std::thread canceller([&] {
    // Cancel very quickly; the solver must notice and return Unknown (or
    // already be done).
    token->cancel();
  });
  const auto r = solver.solve(instance, token);
  canceller.join();
  EXPECT_TRUE(r.status == maxsat::MaxSatStatus::Unknown ||
              r.status == maxsat::MaxSatStatus::Optimal);
}

TEST(Stress, RepeatedPipelineCallsAreDeterministic) {
  gen::GeneratorOptions gopts;
  gopts.num_events = 200;
  const auto tree = gen::random_tree(gopts, 111);
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;  // single-threaded => reproducible
  const core::MpmcsPipeline pipeline(opts);
  const auto first = pipeline.solve(tree);
  for (int i = 0; i < 5; ++i) {
    const auto again = pipeline.solve(tree);
    EXPECT_EQ(again.cut, first.cut);
    EXPECT_EQ(again.scaled_cost, first.scaled_cost);
  }
}

TEST(Stress, ManyTinyTreesBatch) {
  // Latency floor: a batch of 500 small trees end to end.
  core::PipelineOptions opts;
  opts.solver = core::SolverChoice::Oll;
  const core::MpmcsPipeline pipeline(opts);
  util::Timer timer;
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    gen::GeneratorOptions gopts;
    gopts.num_events = 8;
    const auto tree = gen::random_tree(gopts, seed);
    const auto sol = pipeline.solve(tree);
    ASSERT_EQ(sol.status, maxsat::MaxSatStatus::Optimal) << seed;
  }
  EXPECT_LT(timer.seconds(), 30.0);
}

}  // namespace
}  // namespace fta
