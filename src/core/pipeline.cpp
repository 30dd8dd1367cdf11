#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "logic/tseitin.hpp"
#include "maxsat/brute_force.hpp"
#include "maxsat/fu_malik.hpp"
#include "maxsat/incremental.hpp"
#include "maxsat/lsu.hpp"
#include "maxsat/oll.hpp"
#include "maxsat/portfolio.hpp"
#include "maxsat/stratified.hpp"
#include "util/timer.hpp"

namespace fta::core {

using logic::Lit;

const char* solver_choice_name(SolverChoice c) noexcept {
  switch (c) {
    case SolverChoice::Auto: return "auto";
    case SolverChoice::Portfolio: return "portfolio";
    case SolverChoice::Oll: return "oll";
    case SolverChoice::FuMalik: return "fu-malik";
    case SolverChoice::Lsu: return "lsu";
    case SolverChoice::BruteForce: return "brute-force";
    case SolverChoice::Stratified: return "stratified";
  }
  return "?";
}

bool parse_solver_choice(std::string_view name, SolverChoice* out) noexcept {
  for (const SolverChoice c :
       {SolverChoice::Auto, SolverChoice::Portfolio, SolverChoice::Oll,
        SolverChoice::FuMalik, SolverChoice::Lsu, SolverChoice::BruteForce,
        SolverChoice::Stratified}) {
    // "brute" is the CLI's spelling of "brute-force", the name the
    // service journal records and replays.
    if (name == solver_choice_name(c) ||
        (c == SolverChoice::BruteForce && name == "brute")) {
      *out = c;
      return true;
    }
  }
  return false;
}

MpmcsPipeline::MpmcsPipeline(PipelineOptions opts) : opts_(opts) {}

std::vector<double> MpmcsPipeline::log_weights(const ft::FaultTree& tree) {
  std::vector<double> weights(tree.num_events(), 0.0);
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    const double p = tree.event_probability(e);
    weights[e] = p > 0.0 ? -std::log(p)
                         : std::numeric_limits<double>::infinity();
  }
  return weights;
}

logic::NodeId MpmcsPipeline::success_tree(logic::FormulaStore& store,
                                          const ft::FaultTree& tree) {
  return store.dualize(tree.to_formula(store));
}

namespace {

/// Cold prepares since process start (see MpmcsPipeline::prepare_calls).
std::atomic<std::uint64_t> g_prepare_calls{0};
/// Step 5 races started since process start (see
/// MpmcsPipeline::escalations).
std::atomic<std::uint64_t> g_escalations{0};

/// The events reachable from the top gate. A superset of the events the
/// built formula mentions only in degenerate cases, and a superset is
/// harmless for reweighting: a soft on an unconstrained variable is
/// always satisfiable and never changes the optimum.
std::vector<bool> reachable_events(const ft::FaultTree& tree) {
  std::vector<bool> used(tree.num_events(), false);
  if (!tree.has_top()) return used;
  std::vector<bool> seen(tree.num_nodes(), false);
  std::vector<ft::NodeIndex> stack{tree.top()};
  while (!stack.empty()) {
    const ft::NodeIndex i = stack.back();
    stack.pop_back();
    if (seen[i]) continue;
    seen[i] = true;
    const ft::Node& n = tree.node(i);
    if (n.type == ft::NodeType::BasicEvent) {
      used[n.event_index] = true;
      continue;
    }
    for (const ft::NodeIndex c : n.children) stack.push_back(c);
  }
  return used;
}

/// Step 3 in scaled-integer form for the events in `used`: the final
/// per-event soft weight (0 = no soft clause: unused or p == 1; p == 0
/// gets the "forbidden" weight, one more than the summed ordinary
/// weights). Factored out of instance_for_formula so the mutation path
/// rebuilds weights with bit-identical rounding.
std::vector<maxsat::Weight> scaled_soft_weights(const ft::FaultTree& tree,
                                                const std::vector<bool>& used,
                                                double weight_scale) {
  const auto weights = MpmcsPipeline::log_weights(tree);
  maxsat::Weight ordinary_total = 0;
  std::vector<maxsat::Weight> scaled(tree.num_events(), 0);
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    if (!used[e] || std::isinf(weights[e])) continue;
    const auto w = static_cast<maxsat::Weight>(
        std::llround(weights[e] * weight_scale));
    scaled[e] = w;
    ordinary_total += w;
  }
  const maxsat::Weight forbidden = ordinary_total + 1;
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    if (used[e] && std::isinf(weights[e])) scaled[e] = forbidden;
  }
  return scaled;
}

/// Step 4's soft side: one unit soft per weighted event, preferring it
/// absent. Drops any previous softs first (the mutation path reweights
/// instances in place).
void rebuild_softs(const ft::FaultTree& tree, const std::vector<bool>& used,
                   double weight_scale, maxsat::WcnfInstance& instance) {
  instance.clear_soft();
  const auto scaled = scaled_soft_weights(tree, used, weight_scale);
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    if (scaled[e] == 0) continue;  // unused, or p == 1: free to include
    instance.add_soft_unit(Lit::neg(e), scaled[e]);
  }
}

}  // namespace

maxsat::WcnfInstance MpmcsPipeline::build_instance(
    const ft::FaultTree& tree) const {
  // Step 1 (logical transformation). The paper derives the success tree
  // X(t) = ¬f(t) and its gate-flipped positive form Y(t), then maximises
  // satisfied events in ¬Y(t) = f(t). Operationally both views produce
  // the same instance: hard clauses assert the fault formula f(t); every
  // basic event gets a unit soft clause preferring its absence, so the
  // solver minimises the (weighted) set of occurring events.
  logic::FormulaStore store;
  return instance_for_formula(tree, store, tree.to_formula(store));
}

maxsat::WcnfInstance MpmcsPipeline::instance_for_formula(
    const ft::FaultTree& tree, logic::FormulaStore& store,
    logic::NodeId fault, std::vector<bool>* events_used) const {
  // Which events the (sub)formula actually mentions: softs are only
  // emitted for those, which keeps decomposed child instances small.
  std::vector<bool> used(tree.num_events(), false);
  {
    std::vector<logic::NodeId> stack{fault};
    std::unordered_map<logic::NodeId, bool> seen;
    while (!stack.empty()) {
      const logic::NodeId id = stack.back();
      stack.pop_back();
      if (seen.count(id)) continue;
      seen.emplace(id, true);
      const auto& n = store.node(id);
      if (n.kind == logic::NodeKind::Var) used[n.payload] = true;
      for (logic::NodeId c : n.children) stack.push_back(c);
    }
  }
  if (events_used) *events_used = used;

  // Reserve variable indices for every basic event (a subformula may not
  // mention all of them; Tseitin auxiliaries must start above the event
  // range so EventIndex == CNF variable stays true).
  if (tree.num_events() > 0) {
    (void)store.var(static_cast<logic::Var>(tree.num_events() - 1));
  }

  // Step 2 (CNF conversion, Tseitin; vote gates per card_lowering).
  logic::TseitinOptions topts;
  topts.polarity_aware = opts_.polarity_aware_tseitin;
  topts.card_lowering = opts_.card_lowering;
  topts.card_totalizer_threshold = opts_.card_totalizer_threshold;
  auto ts = logic::tseitin(store, fault, /*assert_root=*/true, topts);

  maxsat::WcnfInstance instance(ts.cnf.num_vars());
  instance.add_hard_cnf(ts.cnf);
  instance.set_cards(std::move(ts.cards));

  // Package the gate map as structure hints riding with the instance.
  // This raw artefact is *exact* — the hints describe precisely the
  // clauses just emitted, so structure-derived inprocessing clauses are
  // sound; Step 3.5 downgrades its copy to advisory (preprocess.cpp).
  if (opts_.sat_structure != logic::StructureMode::Off) {
    instance.set_structure(
        std::make_shared<const logic::StructureHints>(
            logic::make_structure_hints(std::move(ts.gates), ts.root,
                                        ts.num_input_vars,
                                        ts.cnf.num_vars())),
        /*exact=*/true);
  }

  // Step 3 (probabilities into log-space) + Step 4 (soft clauses).
  // Scaled-integer weights; events with p == 1 cost nothing (no soft
  // clause; the shrink pass removes gratuitous members), events with
  // p == 0 get the "forbidden" weight: worse than every possible
  // combination of ordinary events, so they are only chosen when
  // unavoidable.
  rebuild_softs(tree, used, opts_.weight_scale, instance);
  return instance;
}

namespace {

/// Step 3.5 freeze set: every basic-event variable (soft-clause
/// variables are frozen by the preprocessor automatically; a decomposed
/// child instance may not carry softs for all events, so the whole event
/// range is pinned explicitly), plus every variable of a cardinality
/// block — inputs and counting auxiliaries. Freezing the counting
/// structure by construction keeps the block layouts valid for reuse by
/// the incremental MaxSAT engine and prevents resolution from rewriting
/// totalizer networks into wide resolvents.
std::vector<bool> freeze_mask(const ft::FaultTree& tree,
                              const maxsat::WcnfInstance& instance) {
  std::vector<bool> frozen(instance.num_vars(), false);
  for (ft::EventIndex e = 0;
       e < tree.num_events() && e < instance.num_vars(); ++e) {
    frozen[e] = true;
  }
  std::vector<logic::Var> aux;
  for (const logic::CardinalityBlock& blk : instance.cards()) {
    for (const logic::Lit l : blk.inputs) frozen[l.var()] = true;
    aux.clear();
    logic::append_aux_vars(blk.layout, aux);
    for (const logic::Var v : aux) frozen[v] = true;
  }
  return frozen;
}

/// Step 3.5 technique profile for a concrete tree. Under the Expand
/// lowering, wide voting gates (k-of-n with n >= 5) become sizeable
/// AND/OR counting networks whose auxiliary variables resolution must
/// not touch: eliminating them rewrites the counting structure into wide
/// resolvents and can flip a milliseconds instance into an intractable
/// one (observed >400x on corpora dominated by 6..12-input votes), so
/// BVE is switched off when such gates make up 10% or more of the gates.
/// The default Auto lowering subsumes this guard: every wide vote
/// (n*k >= threshold covers all n >= 5) is encoded as a totalizer whose
/// variables are frozen by construction, so BVE can stay on and keep
/// simplifying the rest of the encoding.
preprocess::PreprocessOptions effective_preprocess_options(
    const ft::FaultTree& tree, const PipelineOptions& opts) {
  preprocess::PreprocessOptions pp = opts.preprocess_opts;
  if (!pp.bve) return pp;
  std::size_t gates = 0, wide_expanded_votes = 0;
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const ft::Node& n = tree.node(i);
    if (n.type == ft::NodeType::BasicEvent) continue;
    ++gates;
    if (n.type != ft::NodeType::Vote || n.children.size() < 5) continue;
    // Classified with the encoder's own policy rule (pre-fold tree
    // dimensions; a gate that constant-folds away entirely leaves no
    // counting network for BVE to mangle either way).
    if (!logic::lowers_to_totalizer(opts.card_lowering,
                                    opts.card_totalizer_threshold, n.k,
                                    n.children.size())) {
      ++wide_expanded_votes;
    }
  }
  if (wide_expanded_votes * 10 >= gates && gates > 0) pp.bve = false;
  return pp;
}

/// Step 5 by one solver: the session's engine for Oll and Lsu when the
/// caller holds the session, else a fresh stateless solver on `working`.
/// Under Oll a fragmentation-latched session engine (hit
/// OllOptions::core_ceiling on an earlier solve of this structure) would
/// burn the whole budget again, so the solve diverts to LSU, whose
/// counting encoding is immune to core fragmentation. The divert lives
/// here rather than inside solve_oll because races drive the OLL and LSU
/// engines from two threads under one guard — solve_oll must never touch
/// the LSU engine.
maxsat::MaxSatResult solve_alone(
    SolverChoice choice, logic::StructureMode structure,
    maxsat::IncrementalSolveSession::Guard* session,
    const maxsat::WcnfInstance& working, util::CancelTokenPtr cancel) {
  if (session != nullptr &&
      (choice == SolverChoice::Oll || choice == SolverChoice::Lsu)) {
    const auto diverted = [session] {
      return session->oll_fragmented() && session->lsu_useful();
    };
    if (choice == SolverChoice::Oll && !diverted()) {
      maxsat::MaxSatResult r = session->solve_oll(cancel);
      if (r.status != maxsat::MaxSatStatus::Unknown || !diverted()) return r;
    }
    return session->solve_lsu(std::move(cancel));
  }
  maxsat::MaxSatSolverPtr solver;
  if (choice == SolverChoice::FuMalik) {
    solver = std::make_unique<maxsat::FuMalikSolver>();
  } else if (choice == SolverChoice::BruteForce) {
    solver = std::make_unique<maxsat::BruteForceSolver>();
  } else if (choice == SolverChoice::Lsu) {
    maxsat::LsuOptions o;
    o.structure = structure;
    solver = std::make_unique<maxsat::LsuSolver>(o);
  } else {
    maxsat::OllOptions o;
    o.structure = structure;
    solver = std::make_unique<maxsat::OllSolver>(o);
  }
  maxsat::MaxSatResult r = solver->solve(working, std::move(cancel));
  if (r.solver_name.empty()) r.solver_name = solver->name();
  return r;
}

/// The Step 5 race: the paper's portfolio, in the one lineup every
/// racing solve uses. With a session, its incremental OLL (and LSU,
/// unless its counting encoding failed) race as members — resuming from
/// the cores and learnt clauses the session kept — and replace the plain
/// OLL/LSU members they dominate. `raw` (the Step 1-4 twin of the working
/// instance, when hedging is effective) adds the raw-lineage members,
/// seeded apart from their twins. The structure-enabled members install
/// the gate-map layer (seeding, phases, binary watches and, on exact
/// instances under Full, inprocessing); they solve `raw` when there is
/// one, whose hints are exact, else the working instance. Off leaves them
/// out (the ablation baseline).
std::vector<maxsat::PortfolioMember> race_members(
    maxsat::IncrementalSolveSession::Guard* session,
    const maxsat::WcnfInstance* raw, logic::StructureMode structure) {
  std::vector<maxsat::PortfolioMember> members;
  const auto session_member = [session](const char* label, bool lsu) {
    return maxsat::PortfolioMember{label, [session, label, lsu] {
      return std::make_unique<maxsat::SessionMemberSolver>(
          label, [session, lsu](util::CancelTokenPtr c) {
            return lsu ? session->solve_lsu(std::move(c))
                       : session->solve_oll(std::move(c));
          });
    }};
  };
  if (session != nullptr) {
    members.push_back(session_member("oll-inc", false));
    if (session->lsu_useful()) {
      members.push_back(session_member("lsu-inc", true));
    }
  }
  for (auto& member : maxsat::PortfolioSolver::default_members()) {
    if (session != nullptr &&
        (member.label == "oll" || member.label == "lsu")) {
      continue;
    }
    members.push_back(std::move(member));
  }
  if (raw != nullptr) {
    members.push_back({"oll-raw",
                       [] {
                         maxsat::OllOptions o;
                         o.sat.seed = 0xb0a710ad;
                         return std::make_unique<maxsat::OllSolver>(o);
                       },
                       raw});
    members.push_back({"lsu-raw",
                       [] {
                         maxsat::LsuOptions o;
                         o.sat.seed = 0x9a9a5eed;
                         return std::make_unique<maxsat::LsuSolver>(o);
                       },
                       raw});
  }
  if (structure != logic::StructureMode::Off) {
    members.push_back({"oll-circ",
                       [structure] {
                         maxsat::OllOptions o;
                         o.sat.seed = 0xc142c017;
                         o.structure = structure;
                         return std::make_unique<maxsat::OllSolver>(o);
                       },
                       raw});
    members.push_back({"lsu-circ",
                       [structure] {
                         maxsat::LsuOptions o;
                         o.sat.seed = 0x51a7ca7e;
                         o.structure = structure;
                         return std::make_unique<maxsat::LsuSolver>(o);
                       },
                       raw});
  }
  return members;
}

/// How long the OLL lead of an Auto or Stratified Step 5 runs alone before
/// the race starts. Measured with e2ebench (seed 7, 4-vCPU VM): on
/// `whatif` the median Step 5 fell from 10.95 ms at 2.20 CPU-s per
/// wall-s (the eight-member race) to 1.26 ms at 1.00; 17 of 2 172
/// operations escalated, all cold solves of a ~6k-variable tree that
/// `oll-inc` then finished 10-90 ms later. On `oneshot` the escalations
/// were those cold solves and the 2-of-N vote-of-votes models, which the
/// race does not solve within the time limit either.
constexpr double kLeadBudgetSeconds = 0.050;

}  // namespace

maxsat::MaxSatResult MpmcsPipeline::solve_step5(
    maxsat::IncrementalSolveSession::Guard* session,
    const maxsat::WcnfInstance& working,
    const maxsat::WcnfInstance* raw_working,
    util::CancelTokenPtr cancel) const {
  if (opts_.solver != SolverChoice::Auto &&
      opts_.solver != SolverChoice::Portfolio &&
      opts_.solver != SolverChoice::Stratified) {
    return solve_alone(opts_.solver, opts_.sat_structure, session, working,
                       std::move(cancel));
  }
  // One time limit over the lead and the race together.
  const util::CancelTokenPtr limit = util::make_child_token(std::move(cancel));
  limit->set_deadline_after(opts_.timeout_seconds);
  maxsat::MaxSatResult lead;
  if (opts_.solver != SolverChoice::Portfolio) {
    const util::CancelTokenPtr budget = util::make_child_token(limit);
    budget->set_deadline_after(kLeadBudgetSeconds);
    lead = solve_alone(SolverChoice::Oll, opts_.sat_structure, session,
                       working, budget);
    if (lead.status != maxsat::MaxSatStatus::Unknown || limit->cancelled()) {
      return lead;
    }
  }
  g_escalations.fetch_add(1, std::memory_order_relaxed);
  maxsat::PortfolioSolver race(
      race_members(session, raw_working, opts_.sat_structure));
  maxsat::MaxSatResult r = race.solve(working, limit);
  // An undecided race keeps the lead's incumbent (an LSU divert's) when
  // it found none as good in the lead's model space, the working one.
  if (r.status == maxsat::MaxSatStatus::Unknown && lead.has_model() &&
      !r.solved_alternate && (!r.has_model() || lead.cost < r.cost)) {
    lead.lower_bound = std::max(lead.lower_bound, r.lower_bound);
    return lead;
  }
  return r;
}

MpmcsSolution MpmcsPipeline::solve_simplified(
    const ft::FaultTree& tree, const maxsat::WcnfInstance& to_solve,
    const preprocess::PreprocessResult* pre,
    const std::vector<bool>& candidates, util::CancelTokenPtr cancel,
    maxsat::IncrementalSolveSession::Guard* session,
    const ft::ShrinkContext* shrink,
    const maxsat::WcnfInstance* raw_working) const {
  util::Timer total;
  MpmcsSolution sol;
  sol.cnf_vars = to_solve.num_vars();
  sol.cnf_clauses = to_solve.hard().size();
  if (pre) {
    sol.preprocess_removed_vars = pre->stats.fixed_vars +
                                  pre->stats.substituted_vars +
                                  pre->stats.eliminated_vars;
    if (pre->unsat) {
      // Refuted at level 0: no model regardless of softs.
      sol.status = maxsat::MaxSatStatus::Unsatisfiable;
      sol.solver_name = "preprocess";
      sol.lineage = "pre";
      sol.total_seconds = total.seconds();
      return sol;
    }
  }

  // Step 5 — on the persistent incremental session when the caller holds
  // one.
  util::Timer solving;
  const maxsat::MaxSatResult r =
      solve_step5(session, to_solve, raw_working, std::move(cancel));
  sol.solve_seconds = solving.seconds();
  sol.status = r.status;
  sol.solver_name = r.solver_name;
  sol.sat_decisions = r.decisions;
  sol.sat_propagations = r.propagations;
  sol.sat_conflicts = r.conflicts;
  sol.sat_binary_propagations = r.binary_propagations;
  // A raw-lineage win already pays the UP-forced soft weights inside its
  // own cost; only pre-lineage models add the Step 3.5 offset.
  sol.scaled_cost =
      r.cost + (pre && !r.solved_alternate ? pre->cost_offset : 0);
  sol.lineage = pre == nullptr || r.solved_alternate ? "raw" : "pre";

  // Anytime answers: an Unknown result that carries an incumbent model
  // (LSU's best-so-far, or a portfolio race that ran out of deadline) is
  // still a model of the hard clauses — the cut it encodes is valid, just
  // not proven minimum-cost. Extract it exactly like an optimum and report
  // the certified lower bound alongside so callers can bound the gap.
  const bool incumbent_cut =
      r.status == maxsat::MaxSatStatus::Unknown && r.has_model();
  if (r.status == maxsat::MaxSatStatus::Optimal || incumbent_cut) {
    // Map the model back to the original variable space (fixed,
    // substituted and eliminated variables get their forced values),
    // then read the occurring events off it: they form the cut.
    std::vector<bool> model = r.model;
    if (pre && !r.solved_alternate) {
      // Preprocessing never renumbers, so the simplified instance spans
      // the original variable range already.
      model.resize(to_solve.num_vars(), false);
      pre->reconstructor.extend(model);
    }
    if (model.size() < tree.num_events()) {
      model.resize(tree.num_events(), false);
    }
    std::vector<ft::EventIndex> events;
    for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
      if (!candidates.empty() && !candidates[e]) continue;
      if (model[e]) events.push_back(e);
    }
    ft::CutSet cut(std::move(events));
    if (opts_.shrink_to_minimal) {
      cut = shrink != nullptr ? shrink->shrink(tree, std::move(cut))
                              : ft::shrink_to_minimal(tree, std::move(cut));
    }

    // Step 6 (reverse log-space transformation) — recomputed exactly from
    // the tree's probabilities rather than the scaled integer cost.
    sol.cut = cut;
    sol.probability = cut.probability(tree);
    sol.log_cost = cut.log_cost(tree);
    if (incumbent_cut) {
      sol.approximate = true;
      // The bound was certified in the result's own model space; lift it
      // into the reporting space the same way as scaled_cost.
      sol.scaled_lower_bound =
          r.lower_bound + (pre && !r.solved_alternate ? pre->cost_offset : 0);
      sol.probability_upper_bound =
          std::exp(-static_cast<double>(sol.scaled_lower_bound) /
                   opts_.weight_scale);
      if (sol.scaled_cost > 0) {
        sol.optimality_gap =
            static_cast<double>(sol.scaled_cost - sol.scaled_lower_bound) /
            static_cast<double>(sol.scaled_cost);
      }
    }
  }
  sol.total_seconds = total.seconds();
  return sol;
}

namespace {

/// The Step 3.5 time paid to build `prepared`, its strata's included.
double step35_seconds(const PreparedInstance& prepared) {
  double seconds = prepared.pre ? prepared.pre->stats.seconds : 0.0;
  if (prepared.strata) {
    for (const maxsat::StratifiedStratum& s : prepared.strata->strata) {
      if (s.prepared) seconds += step35_seconds(*s.prepared);
    }
  }
  return seconds;
}

}  // namespace

MpmcsSolution MpmcsPipeline::solve(const ft::FaultTree& tree,
                                   util::CancelTokenPtr cancel) const {
  util::Timer total;
  tree.validate();
  // prepare(), inlined so that top-OR decomposition can yield to a
  // stratified plan that applies without computing the plan twice.
  maxsat::StratifiedPlan plan;
  if (opts_.solver == SolverChoice::Stratified) {
    plan = maxsat::plan_strata(tree);
  }
  MpmcsSolution sol;
  if (!plan.applicable && opts_.decompose_top_or &&
      tree.node(tree.top()).type == ft::NodeType::Or) {
    sol = solve_decomposed(tree, std::move(cancel));
  } else {
    const PreparedInstance prepared =
        prepare_with_plan(tree, std::move(plan), cancel);
    sol = solve_prepared(tree, prepared, std::move(cancel));
    sol.preprocess_seconds = step35_seconds(prepared);
  }
  sol.total_seconds = total.seconds();
  return sol;
}

PreparedInstance MpmcsPipeline::prepare(const ft::FaultTree& tree,
                                        util::CancelTokenPtr cancel) const {
  maxsat::StratifiedPlan plan;
  if (opts_.solver == SolverChoice::Stratified) {
    plan = maxsat::plan_strata(tree);
  }
  return prepare_with_plan(tree, std::move(plan), std::move(cancel));
}

PreparedInstance MpmcsPipeline::prepare_with_plan(
    const ft::FaultTree& tree, maxsat::StratifiedPlan plan,
    util::CancelTokenPtr cancel) const {
  g_prepare_calls.fetch_add(1, std::memory_order_relaxed);
  PreparedInstance prepared;
  // Stratified decomposition plan, detected up front (by prepare() or by
  // a one-shot solve): when it applies with an OR combine, every solve
  // and top-k on this artefact routes through the per-stratum
  // sub-artefacts, so the whole-tree Step 3.5 pass, session and shrink
  // context would be dead weight (AND and vote combines keep them: their
  // top-k enumerates unions through the monolithic loop). The engine's
  // structural key separates stratified artefacts, so no other solver
  // choice ever sees this entry.
  const bool strata_only =
      plan.applicable && plan.combine == ft::NodeType::Or;
  build_monolithic(tree, build_instance(tree), strata_only, prepared, cancel);
  // One recursively-prepared sub-artefact (instance + Step 3.5 + session)
  // per module stratum; the modules are where the solving state lives. A
  // pre-filled slot is an artefact the mutation path (patch_prepared)
  // carried over — only dirty strata pay a cold prepare.
  if (plan.applicable) {
    for (maxsat::StratifiedStratum& s : plan.strata) {
      if (!s.trivial && !s.prepared) {
        s.prepared = std::make_shared<const PreparedInstance>(
            prepare(s.module.tree, cancel));
      }
    }
    prepared.strata =
        std::make_shared<const maxsat::StratifiedPlan>(std::move(plan));
    prepared.stratum_memo = std::make_shared<StratumMemo>();
  }
  return prepared;
}

void MpmcsPipeline::build_monolithic(const ft::FaultTree& tree,
                                     maxsat::WcnfInstance raw,
                                     bool strata_only,
                                     PreparedInstance& prepared,
                                     util::CancelTokenPtr cancel) const {
  prepared.raw = std::move(raw);
  prepared.pre.reset();
  prepared.session.reset();
  prepared.shrink.reset();
  if (opts_.preprocess && !strata_only) {
    // `cancel` stays live: the caller's stratified sub-preparation also
    // polls it.
    prepared.pre = std::make_shared<preprocess::PreprocessResult>(
        preprocess::preprocess(prepared.raw, freeze_mask(tree, prepared.raw),
                               effective_preprocess_options(tree, opts_),
                               cancel));
  }
  // The persistent solving state rides with the artefact: whoever caches
  // this PreparedInstance (engine::TreeCache) caches the session too, and
  // a configuration change produces a different structural key — i.e. a
  // fresh session — by construction. Engine construction inside the
  // session is lazy, so prepare() stays as cheap as before. The session
  // is attached regardless of the configured solver: the structural key
  // does not encode the solver choice, so a cache entry built under
  // (say) brute-force traffic must still serve later portfolio requests
  // incrementally.
  if (opts_.incremental && !strata_only &&
      !(prepared.pre && prepared.pre->unsat)) {
    std::shared_ptr<const maxsat::WcnfInstance> instance;
    if (prepared.pre) {
      // Aliasing share: the session keeps the whole preprocess artefact
      // alive and points at its simplified instance.
      instance = std::shared_ptr<const maxsat::WcnfInstance>(
          prepared.pre, &prepared.pre->simplified);
    } else {
      instance = std::make_shared<maxsat::WcnfInstance>(prepared.raw);
    }
    maxsat::IncrementalOptions inc;
    inc.memory_cap_bytes = opts_.incremental_memory_cap_bytes;
    // The session engines install the instance's structure hints (exact
    // on a raw instance, advisory on a preprocessed one).
    inc.oll.structure = opts_.sat_structure;
    inc.lsu.structure = opts_.sat_structure;
    prepared.session = std::make_shared<maxsat::IncrementalSolveSession>(
        std::move(instance), inc);
  }
  // Unconditional (modulo strata_only) for the same cache-sharing reason:
  // a later request with the shrink pass enabled must find the context
  // ready.
  if (!strata_only) {
    prepared.shrink = std::make_shared<const ft::ShrinkContext>(tree);
  }
}

std::uint64_t MpmcsPipeline::prepare_calls() noexcept {
  return g_prepare_calls.load(std::memory_order_relaxed);
}

std::uint64_t MpmcsPipeline::escalations() noexcept {
  return g_escalations.load(std::memory_order_relaxed);
}

void MpmcsPipeline::reweight_prepared(const ft::FaultTree& tree,
                                      PreparedInstance& prepared,
                                      bool exclusive,
                                      DeltaApplication& st) const {
  // The tree's structure is unchanged, so every hard clause — raw
  // Tseitin, preprocessed, and everything a SAT session has learnt from
  // them — is still exact. Only the soft side (Step 3/4) and the
  // weight-dependent core-transformation state need replacing.
  const std::vector<bool> used = reachable_events(tree);
  rebuild_softs(tree, used, opts_.weight_scale, prepared.raw);
  if (prepared.pre && !prepared.pre->unsat) {
    // The UP-forced fix set depends only on hard clauses, so under new
    // weights a fixed-true event discharges its (new) weight into the
    // offset, a fixed-false one drops its soft, and every free event
    // keeps a verbatim unit soft — exactly what a fresh Step 3.5 run
    // over the reweighted raw instance would emit.
    //
    // Exclusive artefacts patch the result in place (the hard clauses —
    // the expensive part of a PreprocessResult — are untouched, so the
    // edit costs O(events), not a full artefact copy); shared ones
    // copy-on-write, because cache-shared copies may still point at the
    // old result. The const_cast is sound: every PreprocessResult is
    // created non-const by prepare()/this COW path, and exclusivity is
    // the documented apply_delta contract.
    std::shared_ptr<preprocess::PreprocessResult> copy;
    auto* next = exclusive
                     ? const_cast<preprocess::PreprocessResult*>(
                           prepared.pre.get())
                     : (copy = std::make_shared<preprocess::PreprocessResult>(
                            *prepared.pre))
                           .get();
    next->simplified.clear_soft();
    next->cost_offset = 0;
    const auto scaled = scaled_soft_weights(tree, used, opts_.weight_scale);
    for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
      if (scaled[e] == 0) continue;
      const logic::LBool v =
          e < next->level0.size() ? next->level0[e] : logic::LBool::Undef;
      if (v == logic::LBool::True) {
        next->cost_offset += scaled[e];
      } else if (v == logic::LBool::Undef) {
        next->simplified.add_soft_unit(Lit::neg(e), scaled[e]);
      }
    }
    if (copy) prepared.pre = std::move(copy);
  }
  if (prepared.session) {
    std::shared_ptr<const maxsat::WcnfInstance> instance;
    if (prepared.pre) {
      instance = std::shared_ptr<const maxsat::WcnfInstance>(
          prepared.pre, &prepared.pre->simplified);
    } else {
      instance = std::make_shared<maxsat::WcnfInstance>(prepared.raw);
    }
    // Exclusively-owned artefacts rebase the live session: learnt
    // clauses and totalizer networks carry over, so the next solve
    // starts warm. Shared ones (cache derive path) get a fresh session —
    // the base's warm state must not be mutated under it.
    if (exclusive && prepared.session->rebase(instance)) {
      st.session_rebased = true;
    } else {
      maxsat::IncrementalOptions inc;
      inc.memory_cap_bytes = opts_.incremental_memory_cap_bytes;
      inc.oll.structure = opts_.sat_structure;
      inc.lsu.structure = opts_.sat_structure;
      prepared.session = std::make_shared<maxsat::IncrementalSolveSession>(
          std::move(instance), inc);
    }
  }
  // Stratified sub-artefacts: the plan's shape is weight-independent, so
  // only modules whose events changed are touched — each gets its module
  // tree reweighted and recurses through this same patch.
  if (prepared.strata && prepared.strata->applicable) {
    auto plan = std::make_shared<maxsat::StratifiedPlan>(*prepared.strata);
    std::vector<bool> touched(plan->strata.size(), false);
    for (std::size_t i = 0; i < plan->strata.size(); ++i) {
      maxsat::StratifiedStratum& s = plan->strata[i];
      if (s.trivial) continue;
      ++st.strata_total;
      bool changed = false;
      for (ft::EventIndex e = 0; e < s.module.tree.num_events(); ++e) {
        const double p = tree.event_probability(s.module.event_map[e]);
        if (s.module.tree.event_probability(e) != p) {
          s.module.tree.set_event_probability(e, p);
          changed = true;
        }
      }
      if (!changed || !s.prepared) {
        ++st.strata_reused;
        continue;
      }
      auto sub = std::make_shared<PreparedInstance>(*s.prepared);
      reweight_prepared(s.module.tree, *sub, exclusive, st);
      s.prepared = std::move(sub);
      touched[i] = true;
      ++st.strata_reweighted;
    }
    // Memo: entries of untouched strata stay valid (their events, and
    // hence their optima and costs, did not change); touched ones drop.
    auto memo = std::make_shared<StratumMemo>();
    if (prepared.stratum_memo) {
      std::lock_guard<std::mutex> lock(prepared.stratum_memo->mutex);
      for (const auto& [key, vec] : prepared.stratum_memo->entries) {
        auto& kept = memo->entries[key];
        kept.resize(plan->strata.size());
        for (std::size_t i = 0; i < vec.size() && i < kept.size(); ++i) {
          if (!touched[i]) kept[i] = vec[i];
        }
      }
    }
    prepared.stratum_memo = std::move(memo);
    prepared.strata = std::move(plan);
  }
}

DeltaApplication MpmcsPipeline::patch_prepared(
    const ft::FaultTree& new_tree, const ft::TreeDelta& delta,
    PreparedInstance& prepared, bool exclusive,
    util::CancelTokenPtr cancel) const {
  DeltaApplication st;
  st.weight_only = delta.weight_only();
  if (st.weight_only) {
    reweight_prepared(new_tree, prepared, exclusive, st);
    return st;
  }
  // Structural edit. When the artefact is stratified and the new tree
  // decomposes compatibly, only strata whose module actually changed pay
  // a cold prepare; a splice keeps existing node indices, so strata pair
  // up by their top-child NodeIndex.
  if (prepared.strata && prepared.strata->applicable) {
    maxsat::StratifiedPlan next = maxsat::plan_strata(new_tree);
    const maxsat::StratifiedPlan& old = *prepared.strata;
    if (next.applicable && next.combine == old.combine && next.k == old.k) {
      std::unordered_map<ft::NodeIndex, std::size_t> by_gate;
      for (std::size_t i = 0; i < old.strata.size(); ++i) {
        by_gate.emplace(old.strata[i].gate, i);
      }
      std::vector<std::ptrdiff_t> reused_from(next.strata.size(), -1);
      std::vector<std::size_t> dirty;
      for (std::size_t i = 0; i < next.strata.size(); ++i) {
        maxsat::StratifiedStratum& s = next.strata[i];
        if (s.trivial) continue;
        ++st.strata_total;
        const auto it = by_gate.find(s.gate);
        if (it != by_gate.end()) {
          const maxsat::StratifiedStratum& o = old.strata[it->second];
          if (!o.trivial && o.prepared) {
            if (ft::structural_equal(s.module.tree, o.module.tree)) {
              // Identical module (shape and weights): share the artefact,
              // warm session included.
              s.prepared = o.prepared;
              reused_from[i] = static_cast<std::ptrdiff_t>(it->second);
              ++st.strata_reused;
              continue;
            }
            if (ft::structural_equal(s.module.tree, o.module.tree,
                                     /*compare_probabilities=*/false)) {
              // Same hard clauses, new weights: patch instead of
              // re-preparing (the splice happened elsewhere; this module
              // only saw weight drift via shared events).
              auto sub = std::make_shared<PreparedInstance>(*o.prepared);
              reweight_prepared(s.module.tree, *sub, exclusive, st);
              s.prepared = std::move(sub);
              ++st.strata_reweighted;
              continue;
            }
          }
        }
        dirty.push_back(i);
      }
      // The monolithic artefacts span the whole tree, so a structural
      // edit invalidates them wholesale (their hard clauses changed) —
      // rebuild, cold. For OR combines this is just the raw instance.
      build_monolithic(new_tree, build_instance(new_tree),
                       next.combine == ft::NodeType::Or, prepared, cancel);
      for (const std::size_t i : dirty) {
        maxsat::StratifiedStratum& s = next.strata[i];
        s.prepared = std::make_shared<const PreparedInstance>(
            prepare(s.module.tree, cancel));
        ++st.strata_reprepared;
      }
      // Memo entries follow the strata they were computed for; anything
      // reweighted or re-prepared starts empty.
      auto memo = std::make_shared<StratumMemo>();
      if (prepared.stratum_memo) {
        std::lock_guard<std::mutex> lock(prepared.stratum_memo->mutex);
        for (const auto& [key, vec] : prepared.stratum_memo->entries) {
          auto& kept = memo->entries[key];
          kept.resize(next.strata.size());
          for (std::size_t i = 0; i < next.strata.size(); ++i) {
            const std::ptrdiff_t j = reused_from[i];
            if (j >= 0 && static_cast<std::size_t>(j) < vec.size()) {
              kept[i] = vec[j];
            }
          }
        }
      }
      prepared.stratum_memo = std::move(memo);
      prepared.strata =
          std::make_shared<const maxsat::StratifiedPlan>(std::move(next));
      return st;
    }
  }
  // No patchable structure (monolithic artefact, or the decomposition
  // shape itself changed): cold re-prepare.
  prepared = prepare(new_tree, std::move(cancel));
  st.reprepared = true;
  return st;
}

DeltaApplication MpmcsPipeline::apply_delta(const ft::FaultTree& new_tree,
                                            const ft::TreeDelta& delta,
                                            PreparedInstance& prepared,
                                            util::CancelTokenPtr cancel) const {
  return patch_prepared(new_tree, delta, prepared, /*exclusive=*/true,
                        std::move(cancel));
}

PreparedInstance MpmcsPipeline::derive_prepared(
    const ft::FaultTree& new_tree, const ft::TreeDelta& delta,
    const PreparedInstance& base, DeltaApplication* stats,
    util::CancelTokenPtr cancel) const {
  PreparedInstance out = base;
  const DeltaApplication st =
      patch_prepared(new_tree, delta, out, /*exclusive=*/false,
                     std::move(cancel));
  if (stats) *stats = st;
  return out;
}

MpmcsSolution MpmcsPipeline::solve_prepared(const ft::FaultTree& tree,
                                            const PreparedInstance& prepared,
                                            util::CancelTokenPtr cancel) const {
  util::Timer total;
  if (opts_.solver == SolverChoice::Stratified && prepared.strata &&
      prepared.strata->applicable) {
    MpmcsSolution sol = solve_stratified(tree, prepared, std::move(cancel));
    sol.total_seconds = total.seconds();
    return sol;
  }
  MpmcsSolution sol = solve_artefact(tree, prepared, {}, std::move(cancel));
  sol.total_seconds = total.seconds();
  return sol;
}

MpmcsSolution MpmcsPipeline::solve_artefact(const ft::FaultTree& tree,
                                            const PreparedInstance& prepared,
                                            const std::vector<bool>& candidates,
                                            util::CancelTokenPtr cancel) const {
  const preprocess::PreprocessResult* pre = prepared.pre.get();
  const maxsat::WcnfInstance* raw =
      pre != nullptr && opts_.hedging_effective() ? &prepared.raw : nullptr;
  // Concurrent solves of the same cached structure race for the session;
  // losers simply take the stateless path.
  maxsat::IncrementalSolveSession::Guard guard;
  if (prepared.session) guard = prepared.session->try_acquire();
  return solve_simplified(tree, pre ? pre->simplified : prepared.raw, pre,
                          candidates, std::move(cancel),
                          guard ? &guard : nullptr, prepared.shrink.get(), raw);
}

MpmcsSolution MpmcsPipeline::solve_prepared(const ft::FaultTree& tree,
                                            const maxsat::WcnfInstance& instance,
                                            util::CancelTokenPtr cancel) const {
  util::Timer total;
  PreparedInstance prepared;
  build_monolithic(tree, instance, /*strata_only=*/false, prepared, cancel);
  MpmcsSolution sol = solve_artefact(tree, prepared, {}, std::move(cancel));
  sol.preprocess_seconds = step35_seconds(prepared);
  sol.total_seconds = total.seconds();
  return sol;
}

std::future<MpmcsSolution> MpmcsPipeline::solve_async(
    ft::FaultTree tree, util::CancelTokenPtr cancel) const {
  // The task owns copies of the tree and the pipeline configuration, so
  // the future stays valid even if both originals die before get().
  return std::async(std::launch::async,
                    [pipeline = *this, tree = std::move(tree),
                     cancel = std::move(cancel)]() {
                      return pipeline.solve(tree, cancel);
                    });
}

MpmcsSolution MpmcsPipeline::solve_decomposed(const ft::FaultTree& tree,
                                              util::CancelTokenPtr cancel) const {
  // MPMCS(f1 | ... | fk) = argmax_i MPMCS(f_i): any cut of a child is a
  // cut of the whole, and the global maximum-probability MCS is minimal
  // within some child (dropping events never lowers the probability).
  // Each child instance still carries every event's soft clause, so
  // extracted models stay clean; the shrink pass enforces minimality with
  // respect to the *full* tree.
  logic::FormulaStore store;
  MpmcsSolution best;
  bool have_best = false;
  double solve_seconds = 0.0;
  double preprocess_seconds = 0.0;
  std::size_t cnf_vars = 0;
  std::size_t cnf_clauses = 0;
  for (const ft::NodeIndex child : tree.node(tree.top()).children) {
    const logic::NodeId f = tree.to_formula(store, child);
    std::vector<bool> used;
    PreparedInstance prepared;
    build_monolithic(tree, instance_for_formula(tree, store, f, &used),
                     /*strata_only=*/false, prepared, cancel);
    preprocess_seconds += step35_seconds(prepared);
    MpmcsSolution sub = solve_artefact(tree, prepared, used, cancel);
    solve_seconds += sub.solve_seconds;
    cnf_vars = std::max(cnf_vars, sub.cnf_vars);
    cnf_clauses += sub.cnf_clauses;
    if (sub.status == maxsat::MaxSatStatus::Unsatisfiable) {
      continue;  // this alternative cannot fire at all
    }
    if (sub.status != maxsat::MaxSatStatus::Optimal) {
      // One undecided child makes the global argmax unproven.
      MpmcsSolution unknown;
      unknown.status = sub.status;
      unknown.solver_name = sub.solver_name;
      unknown.solve_seconds = solve_seconds;
      unknown.preprocess_seconds = preprocess_seconds;
      return unknown;
    }
    if (!have_best || sub.probability > best.probability) {
      best = sub;
      have_best = true;
    }
  }
  if (!have_best) {
    MpmcsSolution unsat;
    unsat.status = maxsat::MaxSatStatus::Unsatisfiable;
    unsat.solve_seconds = solve_seconds;
    unsat.preprocess_seconds = preprocess_seconds;
    return unsat;
  }
  best.solve_seconds = solve_seconds;
  best.preprocess_seconds = preprocess_seconds;
  best.cnf_vars = cnf_vars;
  best.cnf_clauses = cnf_clauses;
  best.solver_name += "+decomp";
  return best;
}

MpmcsSolution MpmcsPipeline::solve_stratified(
    const ft::FaultTree& tree, const PreparedInstance& prepared,
    util::CancelTokenPtr cancel) const {
  const maxsat::StratifiedPlan& plan = *prepared.strata;
  util::Timer total;
  MpmcsSolution sol;
  sol.solver_name = "stratified";
  sol.lineage = "strata";
  // Per-stratum optima memo: a stratum solved once under this
  // configuration is free on every later solve of the artefact, and the
  // mutation path invalidates exactly the entries an edit touched — the
  // re-solve after a local edit pays SAT calls for that module only.
  // The key covers the options that change a stratum's *answer* (shrink
  // drops gratuitous members); costs are in the tree's weight space,
  // which the structural key already pins.
  const std::string memo_key =
      std::string(opts_.shrink_to_minimal ? "s" : "-") +
      (opts_.hedging_effective() ? "h" : "-");
  std::vector<std::optional<maxsat::StratumOutcome>> memo;
  if (prepared.stratum_memo) {
    std::lock_guard<std::mutex> lock(prepared.stratum_memo->mutex);
    const auto it = prepared.stratum_memo->entries.find(memo_key);
    if (it != prepared.stratum_memo->entries.end()) memo = it->second;
  }
  memo.resize(plan.strata.size());
  bool memo_grew = false;
  // One sub-solve per stratum (trivial single-event strata are closed
  // form), each on its own prepared sub-artefact and incremental session.
  std::vector<maxsat::StratumOutcome> outcomes(plan.strata.size());
  for (std::size_t i = 0; i < plan.strata.size(); ++i) {
    const maxsat::StratifiedStratum& s = plan.strata[i];
    maxsat::StratumOutcome& o = outcomes[i];
    if (s.trivial) {
      o.status = maxsat::MaxSatStatus::Optimal;
      o.cut = ft::CutSet({s.event});
      o.cost =
          maxsat::scaled_cut_cost(tree, o.cut.events(), opts_.weight_scale);
      continue;
    }
    if (memo[i]) {
      o = *memo[i];
      continue;
    }
    const MpmcsSolution sub =
        solve_prepared(s.module.tree, *s.prepared, cancel);
    sol.solve_seconds += sub.solve_seconds;
    sol.cnf_vars = std::max(sol.cnf_vars, sub.cnf_vars);
    sol.cnf_clauses += sub.cnf_clauses;
    sol.preprocess_removed_vars += sub.preprocess_removed_vars;
    o.status = sub.status;
    if (sub.status == maxsat::MaxSatStatus::Optimal) {
      std::vector<ft::EventIndex> mapped;
      mapped.reserve(sub.cut.size());
      for (const ft::EventIndex e : sub.cut.events()) {
        mapped.push_back(s.module.event_map[e]);
      }
      o.cut = ft::CutSet(std::move(mapped));
      o.cost =
          maxsat::scaled_cut_cost(tree, o.cut.events(), opts_.weight_scale);
      memo[i] = o;
      memo_grew = true;
    }
  }
  if (memo_grew && prepared.stratum_memo) {
    std::lock_guard<std::mutex> lock(prepared.stratum_memo->mutex);
    auto& stored = prepared.stratum_memo->entries[memo_key];
    stored.resize(plan.strata.size());
    for (std::size_t i = 0; i < plan.strata.size(); ++i) {
      if (memo[i] && !stored[i]) stored[i] = memo[i];
    }
  }

  const maxsat::Recombined rec = maxsat::recombine(plan, outcomes);
  sol.status = rec.status;
  if (rec.status == maxsat::MaxSatStatus::Optimal) {
    // Step 6 exactly as the monolithic path: probability recomputed from
    // the tree over the recombined cut; unavoidable p == 0 members carry
    // the monolithic instance's per-event forbidden weight.
    sol.cut = rec.cut;
    sol.probability = sol.cut.probability(tree);
    sol.log_cost = sol.cut.log_cost(tree);
    sol.scaled_cost = rec.cost.ordinary;
    if (rec.cost.impossible > 0) {
      sol.scaled_cost +=
          rec.cost.impossible *
          maxsat::forbidden_weight(tree, plan, opts_.weight_scale);
    }
  }
  sol.total_seconds = total.seconds();
  return sol;
}

std::vector<MpmcsSolution> MpmcsPipeline::top_k_stratified(
    const ft::FaultTree& tree, const maxsat::StratifiedPlan& plan,
    std::size_t k, util::CancelTokenPtr cancel,
    maxsat::MaxSatStatus* final_status) const {
  // Lazy k-way merge over per-stratum streams: each stratum starts at its
  // own optimum and is only deepened when the merge consumes its head, so
  // the total work is (#strata top-1 solves + at most k deepenings of
  // tiny sub-instances) instead of #strata * k eager enumerations. Sound
  // because the global k best contain at most j cuts of any one stratum,
  // and those are within the stratum's own j best.
  struct Stream {
    const maxsat::StratifiedStratum* stratum = nullptr;
    std::vector<MpmcsSolution> found;  ///< Mapped to original indices.
    std::vector<maxsat::ScaledCutCost> costs;  ///< Parallel to `found`.
    std::vector<ft::CutSet> emitted;  ///< Cuts this merge already output.
    std::size_t head = 0;  ///< Index into `found` of the current head.
    bool exhausted = false;
    bool unknown = false;
  };
  std::vector<Stream> streams(plan.strata.size());

  const auto deepen = [&](Stream& st, std::size_t depth) {
    if (st.exhausted || st.unknown || st.found.size() >= depth) return;
    const maxsat::StratifiedStratum& s = *st.stratum;
    if (s.trivial) {
      MpmcsSolution sol;
      sol.status = maxsat::MaxSatStatus::Optimal;
      sol.cut = ft::CutSet({s.event});
      st.found.push_back(std::move(sol));
      st.exhausted = true;  // a single event has a single (unit) cut
      return;
    }
    // Re-enumerates the stratum's first `depth` cuts; the sub-artefact's
    // warm session makes the replayed rounds cheap.
    maxsat::MaxSatStatus sub_status = maxsat::MaxSatStatus::Optimal;
    const std::vector<MpmcsSolution> subs =
        top_k_prepared(s.module.tree, *s.prepared, depth, cancel, &sub_status);
    st.unknown = sub_status == maxsat::MaxSatStatus::Unknown;
    st.exhausted = !st.unknown && subs.size() < depth;
    st.found.clear();
    st.costs.clear();
    st.found.reserve(subs.size());
    for (const MpmcsSolution& sub : subs) {
      MpmcsSolution sol = sub;
      std::vector<ft::EventIndex> mapped;
      mapped.reserve(sub.cut.size());
      for (const ft::EventIndex ev : sub.cut.events()) {
        mapped.push_back(s.module.event_map[ev]);
      }
      sol.cut = ft::CutSet(std::move(mapped));
      st.found.push_back(std::move(sol));
    }
  };

  for (std::size_t i = 0; i < plan.strata.size(); ++i) {
    streams[i].stratum = &plan.strata[i];
    deepen(streams[i], 1);
  }
  const auto is_emitted = [](const Stream& st, const ft::CutSet& cut) {
    return std::find(st.emitted.begin(), st.emitted.end(), cut) !=
           st.emitted.end();
  };
  // Positions `head` at the cheapest not-yet-emitted entry (found is in
  // enumeration = cost order). A nondeterministic sub-solver may reorder
  // equal-cost ties between deepenings, so already-emitted cuts are
  // skipped by identity, never by index; when the whole enumeration was
  // consumed, one deepening to emitted+1 distinct cuts is guaranteed to
  // surface a fresh one (or prove the family exhausted). Returns false
  // when the stream has nothing more to offer.
  const auto advance = [&](Stream& st) -> bool {
    for (int pass = 0; pass < 2; ++pass) {
      for (st.head = 0; st.head < st.found.size(); ++st.head) {
        if (!is_emitted(st, st.found[st.head].cut)) return true;
      }
      if (st.exhausted || st.unknown) return false;
      deepen(st, st.emitted.size() + 1);
    }
    return false;
  };
  const auto head_cost = [&](Stream& st) {
    while (st.costs.size() <= st.head) {
      st.costs.push_back(maxsat::scaled_cut_cost(
          tree, st.found[st.costs.size()].cut.events(), opts_.weight_scale));
    }
    return st.costs[st.head];
  };

  std::vector<MpmcsSolution> out;
  out.reserve(k);
  while (out.size() < k) {
    // Merge by the monolithic enumeration order (non-decreasing scaled
    // cost); the linear scan is over at most #strata heads. Ties resolve
    // to the earlier stratum, deterministically.
    Stream* best = nullptr;
    for (Stream& st : streams) {
      if (!advance(st)) continue;
      if (best == nullptr || head_cost(st) < head_cost(*best)) best = &st;
    }
    if (best == nullptr) break;  // every stream exhausted (or undecided)
    MpmcsSolution sol = best->found[best->head];
    const maxsat::ScaledCutCost cost = head_cost(*best);
    sol.solver_name = "stratified";
    sol.lineage = "strata";
    sol.scaled_cost = cost.ordinary;
    if (cost.impossible > 0) {
      sol.scaled_cost += cost.impossible * maxsat::forbidden_weight(
                                               tree, plan, opts_.weight_scale);
    }
    sol.probability = sol.cut.probability(tree);
    sol.log_cost = sol.cut.log_cost(tree);
    best->emitted.push_back(sol.cut);
    out.push_back(std::move(sol));
  }
  // An undecided stream poisons exactness even with k results in hand:
  // its undiscovered cuts could outrank any of ours (mirrors the
  // monolithic loop, which reports Unknown for a failed round).
  const bool any_unknown =
      std::any_of(streams.begin(), streams.end(),
                  [](const Stream& st) { return st.unknown; });
  if (final_status) {
    *final_status = any_unknown    ? maxsat::MaxSatStatus::Unknown
                    : out.size() == k ? maxsat::MaxSatStatus::Optimal
                                      : maxsat::MaxSatStatus::Unsatisfiable;
  }
  return out;
}

std::vector<MpmcsSolution> MpmcsPipeline::top_k(
    const ft::FaultTree& tree, std::size_t k, util::CancelTokenPtr cancel,
    maxsat::MaxSatStatus* final_status) const {
  const PreparedInstance prepared = prepare(tree, cancel);
  return top_k_prepared(tree, prepared, k, std::move(cancel), final_status);
}

std::vector<MpmcsSolution> MpmcsPipeline::top_k_prepared(
    const ft::FaultTree& tree, const PreparedInstance& prepared,
    std::size_t k, util::CancelTokenPtr cancel,
    maxsat::MaxSatStatus* final_status) const {
  tree.validate();
  if (final_status) *final_status = maxsat::MaxSatStatus::Optimal;
  if (opts_.solver == SolverChoice::Stratified && prepared.strata &&
      prepared.strata->applicable &&
      prepared.strata->combine == ft::NodeType::Or) {
    // OR plans: the tree's MCS family is the disjoint union of the
    // stratum families, so per-stratum streams merge exactly. AND/vote
    // plans enumerate unions of stratum cuts — those fall through to the
    // monolithic superset-blocking loop below (with the stratified
    // session racing as usual).
    return top_k_stratified(tree, *prepared.strata, k, std::move(cancel),
                            final_status);
  }
  std::vector<MpmcsSolution> out;
  // Steps 1-4 and 3.5 ran once (possibly in an earlier request — the
  // engine's structural cache hands the same artefact to every repeat);
  // every round then appends its blocking clause and pays Step 5 only.
  // Sound because blocking clauses mention only event variables, which
  // are frozen — the reconstructor stays valid. With an incremental
  // session the blockers are retractable (activation-literal-guarded)
  // clauses on the live solver, so each round resumes from the previous
  // round's solver state instead of solving from scratch; the
  // working-instance copy still accumulates them as plain hard clauses
  // for the stateless portfolio hedges.
  const preprocess::PreprocessResult* pre = prepared.pre.get();
  maxsat::WcnfInstance working = pre ? pre->simplified : prepared.raw;
  // The raw-lineage hedge twin accumulates the same blocking clauses
  // (they mention only event variables, valid in both spaces).
  const bool hedged = pre != nullptr && opts_.hedging_effective();
  maxsat::WcnfInstance working_raw;
  if (hedged) working_raw = prepared.raw;
  maxsat::IncrementalSolveSession::Guard guard;
  if (prepared.session) guard = prepared.session->try_acquire();
  // The context opens lazily at the first blocker: round 1 is
  // semantically context-free, so it runs on (and converges) the
  // session's persistent base state, which rounds 2..k then copy.
  bool context_open = false;
  for (std::size_t i = 0; i < k; ++i) {
    MpmcsSolution sol =
        solve_simplified(tree, working, pre, {}, cancel,
                         guard ? &guard : nullptr, prepared.shrink.get(),
                         hedged ? &working_raw : nullptr);
    if (sol.status != maxsat::MaxSatStatus::Optimal) {
      if (final_status) *final_status = sol.status;
      break;
    }
    out.push_back(sol);
    if (sol.cut.size() == 0) break;  // degenerate: constant-true tree
    // Block this cut and every superset: at least one member must be
    // absent in any further solution. Members fixed true at level 0 can
    // never be absent, so their literals drop out of the clause.
    logic::Clause block;
    block.reserve(sol.cut.size());
    for (ft::EventIndex e : sol.cut.events()) {
      if (pre && pre->fixed_true(e)) continue;
      block.push_back(Lit::neg(e));
    }
    if (block.empty()) {
      // The whole cut is forced: every further model is a superset.
      if (final_status) *final_status = maxsat::MaxSatStatus::Unsatisfiable;
      break;
    }
    if (guard) {
      if (!context_open) {
        guard.begin_context();
        context_open = true;
      }
      guard.add_blocking_clause(block);
    }
    if (hedged) working_raw.add_hard(block);
    working.add_hard(std::move(block));
  }
  if (guard && context_open) guard.end_context();
  return out;
}

std::string MpmcsPipeline::to_json(const ft::FaultTree& tree,
                                   const MpmcsSolution& solution) {
  std::optional<ft::JsonSolution> js;
  if (solution.status == maxsat::MaxSatStatus::Optimal) {
    ft::JsonSolution s;
    s.mpmcs = solution.cut;
    s.probability = solution.probability;
    s.log_cost = solution.log_cost;
    s.solver = solution.solver_name;
    s.solve_seconds = solution.solve_seconds;
    js = std::move(s);
  }
  return ft::to_json(tree, js);
}

}  // namespace fta::core
