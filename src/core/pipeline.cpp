#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <optional>
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
  }
  return "?";
}

bool parse_solver_choice(std::string_view name, SolverChoice* out) noexcept {
  for (const SolverChoice c :
       {SolverChoice::Auto, SolverChoice::Portfolio, SolverChoice::Oll,
        SolverChoice::FuMalik, SolverChoice::Lsu, SolverChoice::BruteForce}) {
    // "brute" is the CLI's spelling of "brute-force", the name the
    // service journal records and replays; "stratified" names the module
    // pass, which is Auto's.
    if (name == solver_choice_name(c) ||
        (c == SolverChoice::BruteForce && name == "brute") ||
        (c == SolverChoice::Auto && name == "stratified")) {
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
/// weights). Factored out of build_instance so the mutation path
/// rebuilds weights with bit-identical rounding.
std::vector<maxsat::Weight> scaled_soft_weights(
    const ft::FaultTree& tree, const std::vector<bool>& used,
    double weight_scale, maxsat::Weight* forbidden_out = nullptr) {
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
  if (forbidden_out) *forbidden_out = forbidden;
  return scaled;
}

/// The whole-tree instance's "forbidden" weight (see scaled_soft_weights),
/// which maps a ScaledCutCost to the monolithic scaled cost.
maxsat::Weight forbidden_weight(const ft::FaultTree& tree,
                                double weight_scale) {
  maxsat::Weight forbidden = 0;
  scaled_soft_weights(tree, reachable_events(tree), weight_scale, &forbidden);
  return forbidden;
}

/// A monolithic scaled lower bound as a ScaledCutCost no cut beats: a cut
/// with i p == 0 members costs i * forbidden + ordinary < (i + 1) *
/// forbidden, so cost >= bound forces (i, ordinary) >= (bound / forbidden,
/// bound % forbidden).
maxsat::ScaledCutCost lower_bound_cost(maxsat::Weight bound,
                                       maxsat::Weight forbidden) {
  return {bound % forbidden, static_cast<std::uint32_t>(bound / forbidden)};
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
  const logic::NodeId fault = tree.to_formula(store);
  // Which events the formula actually mentions: softs are only emitted
  // for those.
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

  // Reserve variable indices for every basic event (the formula may not
  // mention all of them; Tseitin auxiliaries must start above the event
  // range so EventIndex == CNF variable stays true).
  if (tree.num_events() > 0) {
    (void)store.var(static_cast<logic::Var>(tree.num_events() - 1));
  }

  // Step 2 (CNF conversion, Tseitin; vote gates per card_lowering).
  logic::TseitinOptions topts;
  topts.card_lowering = opts_.card_lowering;
  topts.card_totalizer_threshold = opts_.card_totalizer_threshold;
  auto ts = logic::tseitin(store, fault, /*assert_root=*/true, topts);

  maxsat::WcnfInstance instance(ts.cnf.num_vars());
  instance.add_hard_cnf(ts.cnf);
  instance.set_cards(std::move(ts.cards));

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
/// variables are frozen by the preprocessor automatically; events with
/// p == 1 carry no soft, so the whole event range is pinned explicitly),
/// plus every variable of a cardinality
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
    SolverChoice choice, maxsat::IncrementalSolveSession::Guard* session,
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
    solver = std::make_unique<maxsat::LsuSolver>();
  } else {
    solver = std::make_unique<maxsat::OllSolver>();
  }
  maxsat::MaxSatResult r = solver->solve(working, std::move(cancel));
  if (r.solver_name.empty()) r.solver_name = solver->name();
  return r;
}

/// The Step 5 race: the paper's four members (maxsat/portfolio), in the
/// one lineup every racing solve uses. With a session, its incremental
/// OLL (and LSU, unless its counting encoding failed) take the places of
/// the plain OLL and LSU members, resuming from the cores and learnt
/// clauses the session kept.
std::vector<maxsat::PortfolioMember> race_members(
    maxsat::IncrementalSolveSession::Guard* session) {
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
  return members;
}

/// The instance Step 5 sees in `prepared`, shareable with a session: the
/// simplified one when Step 3.5 ran (an aliasing share that keeps the
/// whole preprocess artefact alive), else a copy of the raw one.
std::shared_ptr<const maxsat::WcnfInstance> step5_instance(
    const PreparedInstance& prepared) {
  if (!prepared.pre) return std::make_shared<maxsat::WcnfInstance>(prepared.raw);
  return {prepared.pre, &prepared.pre->simplified};
}

/// A fresh incremental session over `instance`.
maxsat::IncrementalSessionPtr new_session(
    const PipelineOptions& opts,
    std::shared_ptr<const maxsat::WcnfInstance> instance) {
  maxsat::IncrementalOptions inc;
  inc.memory_cap_bytes = opts.incremental_memory_cap_bytes;
  return std::make_shared<maxsat::IncrementalSolveSession>(std::move(instance),
                                                           inc);
}

/// Marks `sol` an anytime answer whose optimum is at least the scaled
/// cost `bound`.
void set_lower_bound(MpmcsSolution& sol, maxsat::Weight bound,
                     double weight_scale) {
  sol.approximate = true;
  sol.scaled_lower_bound = bound;
  sol.probability_upper_bound =
      std::exp(-static_cast<double>(bound) / weight_scale);
  if (sol.scaled_cost > 0) {
    sol.optimality_gap = static_cast<double>(sol.scaled_cost - bound) /
                         static_cast<double>(sol.scaled_cost);
  }
}

/// How long the OLL lead of an Auto Step 5 runs alone before the race
/// starts. Measured with e2ebench (seed 7, 4-vCPU VM): on `whatif` the
/// median Step 5 fell from 10.95 ms at 2.20 CPU-s per wall-s (the
/// eight-member race) to 1.26 ms at 1.00; 17 of 2 172 operations
/// escalated, all cold solves of a ~6k-variable tree that `oll-inc` then
/// finished 10-90 ms later.
constexpr double kLeadBudgetSeconds = 0.050;

}  // namespace

maxsat::MaxSatResult MpmcsPipeline::solve_step5(
    maxsat::IncrementalSolveSession::Guard* session,
    const maxsat::WcnfInstance& working, util::CancelTokenPtr cancel) const {
  // One time limit over whatever runs: a single engine, or the lead and
  // the race together.
  const util::CancelTokenPtr limit = util::make_child_token(std::move(cancel));
  limit->set_deadline_after(opts_.timeout_seconds);
  if (opts_.solver != SolverChoice::Auto &&
      opts_.solver != SolverChoice::Portfolio) {
    return solve_alone(opts_.solver, session, working, limit);
  }
  maxsat::MaxSatResult lead;
  if (opts_.solver != SolverChoice::Portfolio) {
    const util::CancelTokenPtr budget = util::make_child_token(limit);
    budget->set_deadline_after(kLeadBudgetSeconds);
    lead = solve_alone(SolverChoice::Oll, session, working, budget);
    if (lead.status != maxsat::MaxSatStatus::Unknown || limit->cancelled()) {
      return lead;
    }
  }
  g_escalations.fetch_add(1, std::memory_order_relaxed);
  maxsat::PortfolioSolver race(race_members(session));
  maxsat::MaxSatResult r = race.solve(working, limit);
  // An undecided race keeps the lead's incumbent (an LSU divert's) when
  // it found none as good.
  if (r.status == maxsat::MaxSatStatus::Unknown && lead.has_model() &&
      (!r.has_model() || lead.cost < r.cost)) {
    lead.lower_bound = std::max(lead.lower_bound, r.lower_bound);
    return lead;
  }
  return r;
}

MpmcsSolution MpmcsPipeline::solve_simplified(
    const ft::FaultTree& tree, const maxsat::WcnfInstance& to_solve,
    const preprocess::PreprocessResult* pre, util::CancelTokenPtr cancel,
    maxsat::IncrementalSolveSession::Guard* session,
    const ft::ShrinkContext* shrink) const {
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
      solve_step5(session, to_solve, std::move(cancel));
  sol.solve_seconds = solving.seconds();
  sol.status = r.status;
  sol.solver_name = r.solver_name;
  sol.sat_decisions = r.decisions;
  sol.sat_propagations = r.propagations;
  sol.sat_conflicts = r.conflicts;
  // Step 3.5 discharged the UP-forced soft weights into its offset.
  const maxsat::Weight offset = pre ? pre->cost_offset : 0;
  sol.scaled_cost = r.cost + offset;
  sol.lineage = pre ? "pre" : "raw";

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
    if (pre) {
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
      set_lower_bound(sol, r.lower_bound + offset, opts_.weight_scale);
    }
  }
  sol.total_seconds = total.seconds();
  return sol;
}

namespace {

/// The Step 3.5 time paid to build `prepared`, its frontier modules'
/// included.
double step35_seconds(const PreparedInstance& prepared) {
  double seconds = prepared.pre ? prepared.pre->stats.seconds : 0.0;
  if (prepared.strata) {
    for (const maxsat::StratifiedStratum& s : prepared.strata->strata) {
      seconds += step35_seconds(*s.prepared);
    }
  }
  return seconds;
}

}  // namespace

std::size_t PreparedInstance::session_bytes_estimate() const noexcept {
  std::size_t bytes = session ? session->memory_bytes_estimate() : 0;
  if (strata) {
    for (const maxsat::StratifiedStratum& s : strata->strata) {
      bytes += s.prepared->session_bytes_estimate();
    }
  }
  return bytes;
}

bool PreparedInstance::has_session() const noexcept {
  return session != nullptr ||
         (strata && std::any_of(strata->strata.begin(), strata->strata.end(),
                                [](const maxsat::StratifiedStratum& s) {
                                  return s.prepared->has_session();
                                }));
}

MpmcsSolution MpmcsPipeline::solve(const ft::FaultTree& tree,
                                   util::CancelTokenPtr cancel) const {
  util::Timer total;
  tree.validate();
  const PreparedInstance prepared = prepare(tree, cancel);
  MpmcsSolution sol = solve_prepared(tree, prepared, std::move(cancel));
  sol.preprocess_seconds = step35_seconds(prepared);
  sol.total_seconds = total.seconds();
  return sol;
}

PreparedInstance MpmcsPipeline::prepare(const ft::FaultTree& tree,
                                        util::CancelTokenPtr cancel) const {
  if (opts_.solver == SolverChoice::Auto) {
    // The module pass: when the top gate is closed-form, only the
    // frontier modules below it need Steps 1-4 — each on its own.
    maxsat::StratifiedPlan plan = maxsat::plan_strata(tree);
    if (plan.applicable) {
      for (maxsat::StratifiedStratum& s : plan.strata) {
        s.prepared = std::make_shared<const PreparedInstance>(
            prepare_monolithic(s.module->tree, cancel));
      }
      PreparedInstance prepared;
      prepared.strata =
          std::make_shared<const maxsat::StratifiedPlan>(std::move(plan));
      return prepared;
    }
  }
  return prepare_monolithic(tree, std::move(cancel));
}

PreparedInstance MpmcsPipeline::prepare_monolithic(
    const ft::FaultTree& tree, util::CancelTokenPtr cancel) const {
  g_prepare_calls.fetch_add(1, std::memory_order_relaxed);
  PreparedInstance prepared;
  build_monolithic(tree, build_instance(tree), prepared, std::move(cancel));
  return prepared;
}

void MpmcsPipeline::build_monolithic(const ft::FaultTree& tree,
                                     maxsat::WcnfInstance raw,
                                     PreparedInstance& prepared,
                                     util::CancelTokenPtr cancel) const {
  prepared.raw = std::move(raw);
  prepared.pre.reset();
  prepared.session.reset();
  prepared.shrink.reset();
  prepared.strata.reset();
  prepared.optimum = std::make_shared<FrontierOptimum>();
  if (opts_.preprocess) {
    prepared.pre = std::make_shared<preprocess::PreprocessResult>(
        preprocess::preprocess(prepared.raw, freeze_mask(tree, prepared.raw),
                               effective_preprocess_options(tree, opts_),
                               std::move(cancel)));
  }
  // The persistent solving state rides with the artefact: whoever caches
  // this PreparedInstance (engine::TreeCache) caches the session too, and
  // a configuration change produces a different structural key — i.e. a
  // fresh session — by construction. Engine construction inside the
  // session is lazy, so prepare() stays as cheap as before. The session
  // is attached regardless of the configured solver: the structural key
  // does not encode the solver choice beyond the module pass, so a cache
  // entry built under (say) brute-force traffic must still serve later
  // portfolio requests incrementally.
  if (opts_.incremental && !(prepared.pre && prepared.pre->unsat)) {
    prepared.session = new_session(opts_, step5_instance(prepared));
  }
  // Unconditional for the same cache-sharing reason: a later request with
  // the shrink pass enabled must find the context ready.
  prepared.shrink = std::make_shared<const ft::ShrinkContext>(tree);
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
  prepared.optimum = std::make_shared<FrontierOptimum>();
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
    // Exclusively-owned artefacts rebase the live session: learnt
    // clauses and totalizer networks carry over, so the next solve
    // starts warm. Shared ones (cache derive path) get a fresh session —
    // the base's warm state must not be mutated under it.
    std::shared_ptr<const maxsat::WcnfInstance> instance =
        step5_instance(prepared);
    if (exclusive && prepared.session->rebase(instance)) {
      st.session_rebased = true;
    } else {
      prepared.session = new_session(opts_, std::move(instance));
    }
  }
}

DeltaApplication MpmcsPipeline::patch_prepared(
    const ft::FaultTree& new_tree, const ft::TreeDelta& delta,
    PreparedInstance& prepared, bool exclusive,
    util::CancelTokenPtr cancel) const {
  DeltaApplication st;
  st.weight_only = delta.weight_only();
  if (!prepared.strata) {
    // The tree's own artefact: a weight edit keeps its hard clauses, any
    // other edit rebuilds it (prepare may then find a closed-form top).
    if (st.weight_only) {
      reweight_prepared(new_tree, prepared, exclusive, st);
    } else {
      prepared = prepare(new_tree, std::move(cancel));
      st.reprepared = true;
    }
    return st;
  }
  // The module pass's shape is weight-independent: a weight edit keeps
  // the plan and refreshes the probabilities of the modules whose events
  // changed; any other edit re-runs the (linear) pass.
  maxsat::StratifiedPlan next;
  if (st.weight_only) {
    next = *prepared.strata;
    for (maxsat::StratifiedStratum& s : next.strata) {
      std::shared_ptr<analysis::ExtractedModule> module;
      for (ft::EventIndex e = 0; e < s.module->tree.num_events(); ++e) {
        const double p = new_tree.event_probability(s.module->event_map[e]);
        if (s.module->tree.event_probability(e) == p) continue;
        if (!module) {
          module = std::make_shared<analysis::ExtractedModule>(*s.module);
        }
        module->tree.set_event_probability(e, p);
      }
      if (module) s.module = std::move(module);
    }
  } else {
    next = maxsat::plan_strata(new_tree);
    if (!next.applicable) {
      prepared = prepare_monolithic(new_tree, std::move(cancel));
      st.reprepared = true;
      return st;
    }
  }
  // Frontier modules pair up by gate (a splice keeps existing node
  // indices): an identical module shares its artefact, warm session and
  // proven optimum included, one with the same shape but new weights is
  // patched, and only a changed shape pays a cold prepare.
  std::unordered_map<ft::NodeIndex, const maxsat::StratifiedStratum*> old;
  for (const maxsat::StratifiedStratum& s : prepared.strata->strata) {
    old.emplace(s.gate, &s);
  }
  for (maxsat::StratifiedStratum& s : next.strata) {
    ++st.strata_total;
    const auto it = old.find(s.gate);
    const maxsat::StratifiedStratum* o =
        it == old.end() ? nullptr : it->second;
    if (o != nullptr &&
        (s.module == o->module ||
         ft::structural_equal(s.module->tree, o->module->tree))) {
      s.prepared = o->prepared;
      ++st.strata_reused;
    } else if (o != nullptr &&
               ft::structural_equal(s.module->tree, o->module->tree,
                                    /*compare_probabilities=*/false)) {
      auto sub = std::make_shared<PreparedInstance>(*o->prepared);
      reweight_prepared(s.module->tree, *sub, exclusive, st);
      s.prepared = std::move(sub);
      ++st.strata_reweighted;
    } else {
      s.prepared = std::make_shared<const PreparedInstance>(
          prepare_monolithic(s.module->tree, cancel));
      ++st.strata_reprepared;
    }
  }
  prepared.strata =
      std::make_shared<const maxsat::StratifiedPlan>(std::move(next));
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
  MpmcsSolution sol =
      prepared.strata
          ? solve_composed(tree, *prepared.strata, std::move(cancel))
          : solve_artefact(tree, prepared, std::move(cancel));
  sol.total_seconds = total.seconds();
  return sol;
}

MpmcsSolution MpmcsPipeline::solve_artefact(const ft::FaultTree& tree,
                                            const PreparedInstance& prepared,
                                            util::CancelTokenPtr cancel) const {
  const preprocess::PreprocessResult* pre = prepared.pre.get();
  // Concurrent solves of the same cached structure race for the session;
  // losers simply take the stateless path.
  maxsat::IncrementalSolveSession::Guard guard;
  if (prepared.session) guard = prepared.session->try_acquire();
  return solve_simplified(tree, pre ? pre->simplified : prepared.raw, pre,
                          std::move(cancel), guard ? &guard : nullptr,
                          prepared.shrink.get());
}

MpmcsSolution MpmcsPipeline::solve_prepared(const ft::FaultTree& tree,
                                            const maxsat::WcnfInstance& instance,
                                            util::CancelTokenPtr cancel) const {
  util::Timer total;
  PreparedInstance prepared;
  build_monolithic(tree, instance, prepared, cancel);
  MpmcsSolution sol = solve_artefact(tree, prepared, std::move(cancel));
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

namespace {

/// Appends a frontier module's cut to its list, in the original tree's
/// event space.
void append_cut(maxsat::FrontierList& list, const ft::FaultTree& tree,
                const maxsat::StratifiedStratum& s, const MpmcsSolution& sub,
                double weight_scale) {
  std::vector<ft::EventIndex> mapped;
  mapped.reserve(sub.cut.size());
  for (const ft::EventIndex e : sub.cut.events()) {
    mapped.push_back(s.module->event_map[e]);
  }
  list.cuts.emplace_back(std::move(mapped));
  list.costs.push_back(
      maxsat::scaled_cut_cost(tree, list.cuts.back().events(), weight_scale));
}

/// Step 6 and the scaled cost of a composed cut, written into `sol`.
void set_composed(MpmcsSolution& sol, const ft::FaultTree& tree,
                  ft::CutSet cut, maxsat::ScaledCutCost cost,
                  maxsat::Weight forbidden) {
  sol.status = maxsat::MaxSatStatus::Optimal;
  sol.solver_name = "stratified";
  sol.lineage = "strata";
  sol.probability = cut.probability(tree);
  sol.log_cost = cut.log_cost(tree);
  sol.cut = std::move(cut);
  // Unavoidable p == 0 members carry the monolithic instance's forbidden
  // weight, so the scaled cost is the monolithic one.
  sol.scaled_cost = cost.ordinary + cost.impossible * forbidden;
}

}  // namespace

MpmcsSolution MpmcsPipeline::solve_composed(const ft::FaultTree& tree,
                                            const maxsat::StratifiedPlan& plan,
                                            util::CancelTokenPtr cancel) const {
  util::Timer timer;
  // One time limit over every frontier module and the composition.
  const util::CancelTokenPtr limit = util::make_child_token(std::move(cancel));
  limit->set_deadline_after(opts_.timeout_seconds);
  MpmcsSolution sol;
  std::vector<maxsat::FrontierList> lists;
  lists.reserve(plan.strata.size());
  for (const maxsat::StratifiedStratum& s : plan.strata) {
    // A module's proven optimum stands until an edit reweights or
    // rebuilds its artefact; only proven, shrunk answers are kept.
    FrontierOptimum& memo = *s.prepared->optimum;
    std::optional<MpmcsSolution> sub;
    {
      std::lock_guard<std::mutex> lock(memo.mutex);
      sub = memo.solution;
    }
    if (!sub) {
      sub = solve_artefact(s.module->tree, *s.prepared, limit);
      sol.sat_decisions += sub->sat_decisions;
      sol.sat_propagations += sub->sat_propagations;
      sol.sat_conflicts += sub->sat_conflicts;
      if (sub->status == maxsat::MaxSatStatus::Optimal &&
          opts_.shrink_to_minimal) {
        std::lock_guard<std::mutex> lock(memo.mutex);
        memo.solution = *sub;
      }
    }
    sol.cnf_vars = std::max(sol.cnf_vars, sub->cnf_vars);
    sol.cnf_clauses += sub->cnf_clauses;
    sol.preprocess_removed_vars += sub->preprocess_removed_vars;
    maxsat::FrontierList& list = lists.emplace_back();
    list.exact = sub->status != maxsat::MaxSatStatus::Unknown;
    if (sub->status == maxsat::MaxSatStatus::Optimal || sub->approximate) {
      append_cut(list, tree, s, *sub, opts_.weight_scale);
    }
    if (!list.exact) {
      list.lower = lower_bound_cost(
          sub->scaled_lower_bound,
          forbidden_weight(s.module->tree, opts_.weight_scale));
    }
  }
  const maxsat::Composition c =
      maxsat::compose(tree, plan, lists, 1, opts_.weight_scale, limit);
  sol.solver_name = "stratified";
  sol.lineage = "strata";
  sol.status = c.exact ? maxsat::MaxSatStatus::Unsatisfiable
                       : maxsat::MaxSatStatus::Unknown;
  if (!c.cuts.empty()) {
    // The forbidden weight walks the tree: only p == 0 members need it.
    const maxsat::ScaledCutCost cost = c.costs.front();
    const maxsat::Weight forbidden =
        cost.impossible > 0 || c.lower.impossible > 0
            ? forbidden_weight(tree, opts_.weight_scale)
            : 0;
    set_composed(sol, tree, c.cuts.front(), cost, forbidden);
    // Anytime answer: an undecided frontier module left an incumbent. Its
    // lower bound composed by the same monotone rules bounds the optimum;
    // a bound that meets the incumbent proves it.
    if (!c.exact && c.lower < cost) {
      sol.status = maxsat::MaxSatStatus::Unknown;
      set_lower_bound(sol, c.lower.ordinary + c.lower.impossible * forbidden,
                      opts_.weight_scale);
    }
  }
  sol.solve_seconds = timer.seconds();
  return sol;
}

/// Steps 1-4 and 3.5 ran once (possibly in an earlier request — the
/// engine's structural cache hands the same artefact to every repeat);
/// every round then appends its blocking clause and pays Step 5 only.
/// Sound because blocking clauses mention only event variables, which are
/// frozen — the reconstructor stays valid. With an incremental session
/// the blockers are retractable (activation-literal-guarded) clauses on
/// the live solver, so each round resumes from the previous round's
/// solver state instead of solving from scratch; the working-instance
/// copy still accumulates them as plain hard clauses for the stateless
/// race members. The session guard closes the context when the
/// enumeration ends.
class MpmcsPipeline::Enumeration {
 public:
  Enumeration(const MpmcsPipeline& pipeline, const ft::FaultTree& tree,
              const PreparedInstance& prepared, util::CancelTokenPtr cancel)
      : pipeline_(&pipeline),
        tree_(&tree),
        prepared_(&prepared),
        pre_(prepared.pre.get()),
        working_(pre_ ? pre_->simplified : prepared.raw),
        cancel_(std::move(cancel)) {
    if (prepared.session) guard_ = prepared.session->try_acquire();
  }

  /// Optimal while cuts may follow; Unsatisfiable once the tree's MCSs
  /// are exhausted, Unknown once a round was cancelled or budget-limited.
  maxsat::MaxSatStatus status() const noexcept { return status_; }

  /// The next cheapest cut into `out`; false once status() is not
  /// Optimal.
  bool next(MpmcsSolution& out) {
    if (status_ != maxsat::MaxSatStatus::Optimal) return false;
    out = pipeline_->solve_simplified(*tree_, working_, pre_, cancel_,
                                      guard_ ? &guard_ : nullptr,
                                      prepared_->shrink.get());
    if (out.status != maxsat::MaxSatStatus::Optimal) {
      status_ = out.status;
      return false;
    }
    // Block this cut and every superset: at least one member must be
    // absent in any further solution. Members fixed true at level 0 can
    // never be absent, so their literals drop out of the clause. An empty
    // clause means the whole cut is forced (or empty, for a constant-true
    // tree): every further model is a superset.
    logic::Clause block;
    block.reserve(out.cut.size());
    for (const ft::EventIndex e : out.cut.events()) {
      if (pre_ && pre_->fixed_true(e)) continue;
      block.push_back(Lit::neg(e));
    }
    if (block.empty()) {
      status_ = maxsat::MaxSatStatus::Unsatisfiable;
      return true;
    }
    if (guard_) {
      // The context opens lazily at the first blocker: round 1 is
      // semantically context-free, so it runs on (and converges) the
      // session's persistent base state, which later rounds then copy.
      if (!context_open_) guard_.begin_context();
      context_open_ = true;
      guard_.add_blocking_clause(block);
    }
    working_.add_hard(std::move(block));
    return true;
  }

 private:
  const MpmcsPipeline* pipeline_;
  const ft::FaultTree* tree_;
  const PreparedInstance* prepared_;
  const preprocess::PreprocessResult* pre_;
  maxsat::WcnfInstance working_;
  util::CancelTokenPtr cancel_;
  maxsat::IncrementalSolveSession::Guard guard_;
  bool context_open_ = false;
  maxsat::MaxSatStatus status_ = maxsat::MaxSatStatus::Optimal;
};

std::vector<MpmcsSolution> MpmcsPipeline::top_k_composed(
    const ft::FaultTree& tree, const maxsat::StratifiedPlan& plan,
    std::size_t k, util::CancelTokenPtr cancel,
    maxsat::MaxSatStatus* final_status) const {
  const util::CancelTokenPtr limit = util::make_child_token(std::move(cancel));
  limit->set_deadline_after(opts_.timeout_seconds);
  // Every frontier module yields its first cut; after each composition, a
  // module yields one more only when a composed cut contains its last.
  // Any other module has no further cut the k cheapest can use: in place
  // of its last, a deeper cut costs no less, and the k cheapest left the
  // composite over its last out.
  std::vector<Enumeration> modules;
  modules.reserve(plan.strata.size());
  for (const maxsat::StratifiedStratum& s : plan.strata) {
    modules.emplace_back(*this, s.module->tree, *s.prepared, limit);
  }
  std::vector<maxsat::FrontierList> lists(plan.strata.size());
  std::vector<bool> wanted(plan.strata.size(), true);
  maxsat::Composition c;
  MpmcsSolution sub;
  do {
    for (std::size_t j = 0; j < modules.size(); ++j) {
      if (!wanted[j]) continue;
      if (modules[j].next(sub)) {
        append_cut(lists[j], tree, plan.strata[j], sub, opts_.weight_scale);
      }
      lists[j].exact =
          modules[j].status() != maxsat::MaxSatStatus::Unknown;
    }
    c = maxsat::compose(tree, plan, lists, k, opts_.weight_scale, limit);
    for (std::size_t j = 0; j < modules.size(); ++j) {
      const std::vector<ft::CutSet>& cuts = lists[j].cuts;
      wanted[j] = modules[j].status() == maxsat::MaxSatStatus::Optimal &&
                  cuts.size() < k &&
                  std::any_of(c.cuts.begin(), c.cuts.end(),
                              [&](const ft::CutSet& cut) {
                                return cuts.back().subset_of(cut);
                              });
    }
  } while (std::find(wanted.begin(), wanted.end(), true) != wanted.end());
  const bool impossible = std::any_of(
      c.costs.begin(), c.costs.end(),
      [](const maxsat::ScaledCutCost& x) { return x.impossible > 0; });
  const maxsat::Weight forbidden =
      impossible ? forbidden_weight(tree, opts_.weight_scale) : 0;
  std::vector<MpmcsSolution> out(c.cuts.size());
  for (std::size_t i = 0; i < c.cuts.size(); ++i) {
    set_composed(out[i], tree, c.cuts[i], c.costs[i], forbidden);
  }
  if (final_status) {
    *final_status = !c.exact           ? maxsat::MaxSatStatus::Unknown
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
  if (k == 0) return {};
  if (prepared.strata) {
    return top_k_composed(tree, *prepared.strata, k, std::move(cancel),
                          final_status);
  }
  std::vector<MpmcsSolution> out;
  Enumeration cuts(*this, tree, prepared, std::move(cancel));
  MpmcsSolution sol;
  while (out.size() < k && cuts.next(sol)) out.push_back(std::move(sol));
  if (final_status && out.size() < k) *final_status = cuts.status();
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
