// e2ebench: the end-to-end benchmark of the MPMCS pipeline.
//
//   e2ebench --workload oneshot|whatif --seed N --seconds S
//            --trace 0|1 [--repo DIR] [--out DIR]
//
// Every workload is a closed loop: one thread keeps one operation in
// flight against the program's default configuration. Inputs come from
// the benchmark's own seeded generator and writers (model.hpp) plus the
// repository's corpus/ read as-is; the program receives only documents and
// HTTP bodies. Every answer is checked by the benchmark's own oracles
// (oracle.hpp) between operations, outside every timed figure.
//
// The last line of standard output is one JSON object:
//   {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "engine/analysis_engine.hpp"
#include "format/format.hpp"
#include "ft/cut_set.hpp"
#include "ft/tree_delta.hpp"
#include "logic/cardinality.hpp"
#include "maxsat/stratified.hpp"
#include "preprocess/preprocess.hpp"
#include "service/http_server.hpp"
#include "service/solve_service.hpp"

#include "model.hpp"
#include "oracle.hpp"
#include "trace.hpp"
#include "wire.hpp"

namespace {

using namespace bench;
namespace core = fta::core;
namespace fs = std::filesystem;

/// The CLI's --timeout of every oneshot operation: apart from the
/// vote-of-votes share, solves finish in well under 0.3 s.
constexpr double kOneshotTimeLimit = 1.0;
/// deadline_ms carried by every PATCH.
constexpr int kPatchDeadlineMs = 10000;
/// Edits the traced whatif run replays through the engine and the
/// pipeline (bounds the traced run's length).
constexpr std::size_t kReplayEdits = 300;
constexpr std::size_t kTopK = 5;
/// Set-ups per run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string repo = ".";
  std::string out = ".bench_out";
};

struct OpRecord {
  double wall = 0.0;
  double cpu = 0.0;
  bool failed = false;
};

/// State of one benchmark run, shared by every workload.
struct Run {
  Args args;
  bool correct = true;
  std::uint64_t next_op = 0;
  std::vector<double> setups;
  std::vector<OpRecord> untraced, traced;
  Tracer tracer;
  Layers layers;
  double scale = core::PipelineOptions{}.weight_scale;

  void wrong(const std::string& what) {
    std::fprintf(stderr, "WRONG ANSWER: %s\n", what.c_str());
    correct = false;
  }
  Tracer* tracer_if(bool traced_phase) { return traced_phase ? &tracer : nullptr; }
};

Rng seeded(std::uint64_t seed, std::uint64_t salt) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed), static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(salt)};
  return Rng(seq);
}

/// Sizes drawn log-uniformly, one per equal-width stratum of the log range
/// [lo, hi], from the middle `width` share of the stratum: continuous
/// sizes whose total does not swing between seeds the way a handful of
/// independent draws would. Small pools take a narrow width, since their
/// largest model sets the run's time and memory.
std::vector<std::uint32_t> stratified_sizes(Rng& rng, std::size_t n, double lo,
                                            double hi, double width = 1.0) {
  std::vector<std::uint32_t> out;
  for (std::size_t i = 0; i < n; ++i) {
    const double u = (static_cast<double>(i) + 0.5 + width * uniform(rng, -0.5, 0.5)) /
                     static_cast<double>(n);
    out.push_back(static_cast<std::uint32_t>(std::lround(lo * std::pow(hi / lo, u))));
  }
  return out;
}

/// One value per equal-width stratum of [lo, hi], in random order: paired
/// with stratified sizes this is a Latin-hypercube sample, so every seed
/// covers the parameter range evenly.
std::vector<double> stratified_values(Rng& rng, std::size_t n, double lo, double hi) {
  std::vector<double> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(lo + (hi - lo) * (static_cast<double>(i) + uniform(rng, 0, 1)) /
                           static_cast<double>(n));
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + p.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The answer's members as indices of the benchmark's model, by name.
std::vector<std::uint32_t> model_cut(const Model& m,
                                     const std::vector<std::string>& names,
                                     std::string* err) {
  std::vector<std::uint32_t> out;
  for (const std::string& name : names) {
    const std::int64_t i = m.find(name);
    if (i < 0 || m.nodes[static_cast<std::size_t>(i)].kind != Kind::Event) {
      *err = "answer names unknown event '" + name + "'";
      return {};
    }
    out.push_back(static_cast<std::uint32_t>(i));
  }
  return out;
}

std::vector<std::string> cut_names(const fta::ft::FaultTree& t,
                                   const fta::ft::CutSet& cut) {
  std::vector<std::string> out;
  for (const fta::ft::EventIndex e : cut.events()) out.push_back(t.event(e).name);
  return out;
}

/// The Step 3.5 freeze set the pipeline uses: every event variable and
/// every variable of a cardinality block.
std::vector<bool> freeze_mask(const fta::ft::FaultTree& tree,
                              const fta::maxsat::WcnfInstance& inst) {
  std::vector<bool> frozen(inst.num_vars(), false);
  for (std::uint32_t e = 0; e < tree.num_events() && e < inst.num_vars(); ++e) {
    frozen[e] = true;
  }
  std::vector<fta::logic::Var> aux;
  for (const fta::logic::CardinalityBlock& blk : inst.cards()) {
    for (const fta::logic::Lit l : blk.inputs) frozen[l.var()] = true;
    aux.clear();
    fta::logic::append_aux_vars(blk.layout, aux);
    for (const fta::logic::Var v : aux) frozen[v] = true;
  }
  return frozen;
}

struct ProbeTimes {
  double encode = 0.0, simplify = 0.0, shrink = 0.0, plan = 0.0;
};

/// Traced runs only: times single layers on the operation's input, outside
/// the operation's span. `context_shrink` selects the shrink the operation
/// itself ran (prepared artefacts keep a ShrinkContext; one-shot solves use
/// ft::shrink_to_minimal); `plan` is set where the operation asked for the
/// stratified solver (plan_strata is super-linear on large models: minutes
/// at 7*10^4 events, CHANGES.md).
ProbeTimes probe_layers(Run& r, std::uint64_t op, const fta::ft::FaultTree& tree,
                        const fta::ft::CutSet& answer, bool context_shrink, bool plan) {
  ProbeTimes t;
  const core::MpmcsPipeline pipeline;
  fta::maxsat::WcnfInstance raw(0);
  {
    Scope s(&r.tracer, "core.build_instance", op);
    raw = pipeline.build_instance(tree);
    t.encode = s.stop();
  }
  {
    Scope s(&r.tracer, "preprocess.preprocess", op);
    const auto pre = fta::preprocess::preprocess(raw, freeze_mask(tree, raw));
    t.simplify = s.stop();
    r.layers.count("preprocess.removed",
                   static_cast<double>(pre.stats.fixed_vars + pre.stats.substituted_vars +
                                       pre.stats.eliminated_vars));
    r.layers.count("preprocess.vars", raw.num_vars());
  }
  if (plan) {
    Scope s(&r.tracer, "maxsat.plan_strata", op);
    (void)fta::maxsat::plan_strata(tree);
    t.plan = s.stop();
    r.layers.add("maxsat.plan_ms", 1e3 * t.plan);
  }
  std::unique_ptr<fta::ft::ShrinkContext> ctx;
  {
    Scope s(&r.tracer, "ft.ShrinkContext", op);
    ctx = std::make_unique<fta::ft::ShrinkContext>(tree);
    r.layers.add("ft.shrink_context_ms", 1e3 * s.stop());
  }
  if (context_shrink) {
    Scope s(&r.tracer, "ft.ShrinkContext.shrink", op);
    (void)ctx->shrink(tree, answer);
    t.shrink = s.stop();
  } else {
    Scope s(&r.tracer, "ft.shrink_to_minimal", op);
    (void)fta::ft::shrink_to_minimal(tree, answer);
    t.shrink = s.stop();
  }
  r.layers.add("core.encode_ms", 1e3 * t.encode);
  r.layers.add("preprocess.simplify_ms", 1e3 * t.simplify);
  r.layers.add("ft.shrink_ms", 1e3 * t.shrink);
  return t;
}

/// Per-answer Step 5 telemetry the program reports.
void record_answer(Run& r, const std::string& solver, double conflicts,
                   double propagations) {
  r.layers.count("answers");
  r.layers.count("win." + solver);
  r.layers.count("sat.conflicts", conflicts);
  r.layers.count("sat.propagations", propagations);
}

// --- oneshot: the CLI's single-file path --------------------------------------

struct CliInput {
  std::string family;
  Model model;
  std::string filename, doc;
  bool stratified = false, top5 = false, fig1 = false;
  std::optional<Expected> expected;
};

using CliInputs = std::vector<std::unique_ptr<CliInput>>;

void add_generated(CliInputs& out, std::string family, Model model, Format f) {
  auto in = std::make_unique<CliInput>();
  in->family = std::move(family);
  in->filename = in->family + std::to_string(out.size()) + format_ext(f);
  in->doc = write_document(model, f);
  in->model = std::move(model);
  out.push_back(std::move(in));
}

/// oneshot: 500-5000-event random AND/OR DAGs and OR/AND ladders plus
/// corpus/, with fixed stratified and top-5 shares. Shuffled once per seed.
CliInputs make_oneshot_inputs(std::uint64_t seed, const std::string& repo) {
  constexpr std::size_t kDags = 72, kLadders = 48;
  Rng rng = seeded(seed, 1);
  CliInputs out;
  // The random DAGs carry no votes and share at most 5%: random models with
  // 4-10% votes, or with more sharing, now and then keep the default race
  // past the time limit, once for minutes (CHANGES.md, FOUND). Votes are
  // in the ladders, the vote-of-votes share and corpus/.
  const auto dag_sizes = stratified_sizes(rng, kDags, 500, 5000);
  const auto sharing = stratified_values(rng, kDags, 0.0, 0.05);
  for (std::size_t i = 0; i < kDags; ++i) {
    add_generated(out, "dag", random_dag(rng, dag_sizes[i], sharing[i], 0.0),
                  static_cast<Format>(i % 3));
    out.back()->top5 = i % 4 == 0;
  }
  // Ladders ask for the stratified solver, as a user with redundant-train
  // models would: under the default race, ladders past ~2 400 events do
  // not prove their optimum within the time limit, and stratified top-5 on
  // AND ladders neither (CHANGES.md, FOUND). Top-5 runs on OR ladders.
  const auto ladder_sizes = stratified_sizes(rng, kLadders, 500, 5000);
  for (std::size_t i = 0; i < kLadders; ++i) {
    add_generated(out, "ladder", ladder(rng, ladder_sizes[i], i % 2 == 1, (i / 2) % 2 == 1),
                  static_cast<Format>((i + 1) % 3));
    out.back()->stratified = true;
    out.back()->top5 = i % 4 == 2;
  }
  std::vector<fs::path> corpus;
  for (const auto& entry : fs::directory_iterator(fs::path(repo) / "corpus")) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".dft" || ext == ".xml") corpus.push_back(entry.path());
  }
  std::sort(corpus.begin(), corpus.end());
  if (corpus.empty()) throw std::runtime_error("no corpus/ documents found");
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    auto in = std::make_unique<CliInput>();
    in->family = "corpus";
    in->filename = corpus[i].filename().string();
    in->doc = read_file(corpus[i]);
    in->model = corpus[i].extension() == ".xml" ? read_open_psa(in->doc)
                                                : read_galileo(in->doc);
    in->fig1 = corpus[i].stem() == "fps_dsn2020";
    in->top5 = i % 3 == 0;
    out.push_back(std::move(in));
  }
  std::shuffle(out.begin(), out.end(), rng);
  return out;
}

/// The counted-failure inputs: 2-of-N votes over N 2-of-3 subsystems.
/// Seed-independent; one sits in every oneshot round.
CliInputs make_vote_of_votes() {
  CliInputs out;
  for (const std::uint32_t n : {10u, 12u, 16u}) {
    auto in = std::make_unique<CliInput>();
    in->family = "vote_of_votes";
    in->filename = "vote_of_votes" + std::to_string(n) + ".dft";
    in->model = vote_of_votes(n);
    in->doc = write_galileo(in->model);
    out.push_back(std::move(in));
  }
  return out;
}

/// Set-up's check that the program reads every document as the model the
/// oracles hold: the same top, and every reachable event under its name
/// with its probability. It is the program's share of oneshot's set-up, so
/// setup_s moves with the program's parsers, not only with the generator.
void preflight(Run& r, const CliInputs& inputs) {
  for (const auto& in : inputs) {
    const fta::ft::FaultTree tree = fta::format::parse_tree(in->doc, {}, in->filename);
    const Model& m = in->model;
    std::string err;
    if (!tree.has_top() || tree.node(tree.top()).name != m.nodes[m.top].name) {
      err = "top is not '" + m.nodes[m.top].name + "'";
    }
    for (const std::uint32_t e : m.events()) {
      if (!err.empty()) break;
      const Node& want = m.nodes[e];
      const fta::ft::NodeIndex got = tree.find(want.name);
      if (got == fta::ft::kNoIndex ||
          tree.node(got).type != fta::ft::NodeType::BasicEvent) {
        err = "no event '" + want.name + "'";
      } else if (std::abs(tree.node(got).probability - want.p) > 1e-9 * want.p) {
        err = "event '" + want.name + "' has p = " + fmt_double(tree.node(got).probability) +
              ", not " + fmt_double(want.p);
      }
    }
    if (!err.empty()) r.wrong(in->filename + " is read differently: " + err);
  }
}

/// One CLI operation: parse, solve, (top-5), Fig. 2 document — then, outside
/// the timed span, the answer checks and (traced) the layer probes.
void cli_op(Run& r, CliInput& in, bool traced, std::vector<OpRecord>& records) {
  const std::uint64_t op = r.next_op++;
  Tracer* tr = r.tracer_if(traced);
  core::PipelineOptions opts;
  opts.timeout_seconds = kOneshotTimeLimit;
  if (in.stratified) opts.solver = core::SolverChoice::Stratified;
  const core::MpmcsPipeline pipeline(opts);

  fta::ft::FaultTree tree;
  core::MpmcsSolution sol;
  std::vector<core::MpmcsSolution> top;
  auto top_status = fta::maxsat::MaxSatStatus::Optimal;
  std::string json, error;
  double parse_s = 0, solve_s = 0, solve_cpu = 0, topk_s = 0, json_s = 0;
  const std::uint64_t prepares = core::MpmcsPipeline::prepare_calls();
  OpRecord rec;
  const double cpu0 = cpu_now();
  Scope whole(tr, "op." + in.family, op);
  try {
    {
      Scope s(tr, "format.parse_tree", op);
      tree = fta::format::parse_tree(in.doc, {}, in.filename);
      parse_s = s.stop();
    }
    {
      const double c = cpu_now();
      Scope s(tr, "core.solve", op);
      sol = pipeline.solve(tree);
      solve_s = s.stop();
      solve_cpu = cpu_now() - c;
    }
    // The CLI stops at a non-optimal answer.
    if (sol.status == fta::maxsat::MaxSatStatus::Optimal) {
      if (in.top5) {
        Scope s(tr, "core.top_k", op);
        top = pipeline.top_k(tree, kTopK, nullptr, &top_status);
        topk_s = s.stop();
      }
      Scope s(tr, "core.to_json", op);
      json = core::MpmcsPipeline::to_json(tree, sol);
      json_s = s.stop();
    }
  } catch (const std::exception& e) {
    error = e.what();
    sol.status = fta::maxsat::MaxSatStatus::Unknown;
  }
  rec.wall = whole.stop();
  rec.cpu = cpu_now() - cpu0;
  rec.failed = sol.status != fta::maxsat::MaxSatStatus::Optimal ||
               top_status == fta::maxsat::MaxSatStatus::Unknown;
  records.push_back(rec);
  if (rec.failed) {
    const std::string why =
        !error.empty() ? error
                       : "no optimum within the time limit (solve status " +
                             std::to_string(static_cast<int>(sol.status)) + ", top-5 status " +
                             std::to_string(static_cast<int>(top_status)) + ")";
    // Only the vote-of-votes share may fail, and it is counted; any other
    // failure fails the run instead of dropping out of the rates.
    if (in.family == "vote_of_votes" && error.empty()) {
      std::fprintf(stderr, "operation failed (counted): %s: %s\n", in.filename.c_str(),
                   why.c_str());
    } else {
      r.wrong(in.filename + ": " + why);
    }
    return;
  }

  // --- answer checks (untimed) ---
  if (!in.expected) in.expected = expect(in.model, in.top5 ? kTopK : 0);
  const Evaluator evaluator(in.model);
  std::string err;
  const std::vector<std::string> names = cut_names(tree, sol.cut);
  const auto cut = model_cut(in.model, names, &err);
  if (err.empty()) {
    err = check_answer(in.model, evaluator, *in.expected, cut, sol.probability,
                       sol.log_cost, r.scale);
  }
  if (err.empty() && in.fig1) err = check_fig1(names, sol.probability);
  if (err.empty() && in.top5) {
    std::vector<std::vector<std::uint32_t>> cuts;
    for (const auto& s : top) {
      if (err.empty()) cuts.push_back(model_cut(in.model, cut_names(tree, s.cut), &err));
    }
    if (err.empty()) err = check_top_k(in.model, evaluator, *in.expected, cuts, kTopK, r.scale);
  }
  if (err.empty()) {
    // The Fig. 2 document marks exactly the answer's members.
    std::size_t marked = 0;
    for (std::size_t at = 0; (at = json.find("\"inMpmcs\": true", at)) != std::string::npos;
         ++at) {
      ++marked;
    }
    if (marked != sol.cut.size()) err = "Fig. 2 document marks " + std::to_string(marked) +
                                        " events, the answer has " +
                                        std::to_string(sol.cut.size());
  }
  if (!err.empty()) r.wrong(in.filename + ": " + err);
  if (!traced) return;

  // --- per-layer figures (traced phase only) ---
  r.layers.add("format.parse_ms", 1e3 * parse_s);
  r.layers.count("format.bytes", static_cast<double>(in.doc.size()));
  r.layers.count("format.seconds", parse_s);
  r.layers.add("maxsat.step5_ms", 1e3 * sol.solve_seconds);
  r.layers.count("step5.cpu", solve_cpu);
  r.layers.count("step5.wall", solve_s);
  record_answer(r, sol.solver_name, static_cast<double>(sol.sat_conflicts),
                static_cast<double>(sol.sat_propagations));
  if (in.top5) r.layers.add("core.topk_ms", 1e3 * topk_s);
  r.layers.add("ft.to_json_ms", 1e3 * json_s);
  r.layers.count("prepare_calls",
                 static_cast<double>(core::MpmcsPipeline::prepare_calls() - prepares));
  const ProbeTimes p = probe_layers(r, op, tree, sol.cut, /*context_shrink=*/false, in.stratified);
  // What no span covers inside core.solve: validation, Tseitin bookkeeping,
  // thread start-up, model reconstruction. Stratified solves prepare each
  // stratum instead of the whole tree, so only the plan is subtracted there.
  const double attributed =
      in.stratified ? p.plan + sol.solve_seconds + sol.preprocess_seconds
                    : p.encode + p.simplify + sol.solve_seconds + p.shrink;
  r.layers.add("core.unattributed_ms", 1e3 * (solve_s - attributed));
}

/// Whole rounds until --seconds have passed; `round_of(i)` lists round i.
/// Traced runs alternate traced and untraced rounds, so both see the same
/// conditions and the difference of their medians is the tracing overhead.
template <typename RoundOf>
void run_rounds(Run& r, RoundOf round_of) {
  const double end = wall_now() + r.args.seconds;
  std::size_t round = 0;
  do {
    const bool traced = r.args.trace && round % 2 == 0;
    for (CliInput* in : round_of(round)) {
      cli_op(r, *in, traced, traced ? r.traced : r.untraced);
    }
    ++round;
  } while (wall_now() < end || (r.args.trace && round < 2));
}

void run_oneshot(Run& r) {
  CliInputs inputs, failing;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = wall_now();
    inputs = make_oneshot_inputs(r.args.seed, r.args.repo);
    failing = make_vote_of_votes();
    preflight(r, inputs);
    preflight(r, failing);
    r.setups.push_back(wall_now() - t0);
  }
  // A round: every input once, plus one vote-of-votes model (N cycling
  // 10, 12, 16) at the middle of the round.
  const auto round_of = [&](std::size_t round) {
    std::vector<CliInput*> ops;
    for (auto& in : inputs) ops.push_back(in.get());
    ops.insert(ops.begin() + static_cast<std::ptrdiff_t>(ops.size() / 2),
               failing[round % failing.size()].get());
    return ops;
  };
  run_rounds(r, round_of);
}

// --- whatif: PATCH /v1/trees/{id} against the self-hosted service ------------

enum class EditKind : std::uint8_t { Weight, Toggle, Splice };

struct EditOp {
  EditKind kind = EditKind::Weight;
  std::string target;
  double p = 0.0;
  bool enabled = true;
  Model splice;  ///< Splice: replacement subtree, its top named `target`.
};

struct Edit {
  std::size_t model = 0;
  std::vector<EditOp> ops;
};

/// The benchmark's copy of a registered model, as the edits the service
/// accepted left it.
struct ModelState {
  Model model;
  std::int64_t disabled = -1;  ///< The event a toggle disabled, if any.
  std::size_t splices = 0;     ///< Tags the fresh names of the next splice.
};

struct Resource {
  ModelState state;
  Format format = Format::Galileo;
  std::string doc;  ///< Registration document.
  std::string tenant;  ///< The service caps trees per tenant at 16.
  bool stratified = false;
  std::string id, etag;
  std::vector<std::string> last_answer;
};

/// Mirrors the program's splice: the target gate is redefined as the
/// replacement's root; replacement events reuse existing events by name
/// (taking the replacement's probability and re-enabled); everything else
/// is appended.
void apply_op(Model& m, const EditOp& op) {
  const std::int64_t t = m.find(op.target);
  if (t < 0) throw std::logic_error("edit targets unknown node " + op.target);
  Node& target = m.nodes[static_cast<std::size_t>(t)];
  switch (op.kind) {
    case EditKind::Weight:
      target.p = op.p;
      return;
    case EditKind::Toggle:
      target.enabled = op.enabled;
      return;
    case EditKind::Splice: break;
  }
  const Model& rep = op.splice;
  std::vector<std::uint32_t> map(rep.nodes.size(), 0);
  for (const std::uint32_t id : rep.topo_order()) {
    const Node& n = rep.nodes[id];
    if (id == rep.top) continue;
    if (n.kind == Kind::Event) {
      const std::int64_t e = m.find(n.name);
      if (e >= 0) {
        m.nodes[static_cast<std::size_t>(e)].p = n.p;
        m.nodes[static_cast<std::size_t>(e)].enabled = true;
        map[id] = static_cast<std::uint32_t>(e);
      } else {
        map[id] = m.add_event(n.name, n.p);
      }
    } else {
      std::vector<std::uint32_t> kids;
      for (const std::uint32_t c : n.kids) kids.push_back(map[c]);
      map[id] = m.add_gate(n.name, n.kind, std::move(kids), n.k);
    }
  }
  Node& root = m.nodes[static_cast<std::size_t>(m.find(op.target))];
  root.kind = rep.nodes[rep.top].kind;
  root.k = rep.nodes[rep.top].k;
  root.kids.clear();
  for (const std::uint32_t c : rep.nodes[rep.top].kids) root.kids.push_back(map[c]);
}

std::string edit_json(const Edit& e) {
  std::string out = "[";
  for (std::size_t i = 0; i < e.ops.size(); ++i) {
    const EditOp& op = e.ops[i];
    if (i) out += ", ";
    switch (op.kind) {
      case EditKind::Weight:
        out += "{\"op\": \"weight\", \"event\": " + json_quote(op.target) +
               ", \"probability\": " + fmt_double(op.p) + "}";
        break;
      case EditKind::Toggle:
        out += "{\"op\": \"toggle\", \"event\": " + json_quote(op.target) +
               ", \"enabled\": " + (op.enabled ? "true" : "false") + "}";
        break;
      case EditKind::Splice:
        out += "{\"op\": \"replace\", \"gate\": " + json_quote(op.target) +
               ", \"subtree\": " +
               json_quote(write_native_subtree(op.splice, op.splice.top)) + "}";
        break;
    }
  }
  return out + "]";
}

fta::ft::TreeDelta program_delta(const Edit& e) {
  fta::ft::TreeDelta d;
  for (const EditOp& op : e.ops) {
    switch (op.kind) {
      case EditKind::Weight: d.ops.push_back(fta::ft::TreeDelta::weight(op.target, op.p)); break;
      case EditKind::Toggle:
        d.ops.push_back(fta::ft::TreeDelta::toggle(op.target, op.enabled));
        break;
      case EditKind::Splice:
        d.ops.push_back(fta::ft::TreeDelta::replace(
            op.target, write_native_subtree(op.splice, op.splice.top)));
        break;
    }
  }
  return d;
}

/// Edit kinds by position: of every 20 edits, 16 are 1-3-event weight
/// updates, 3 toggles and 1 a subtree splice.
EditKind kind_at(std::uint64_t i) {
  const std::uint64_t slot = i % 20;
  if (slot == 19) return EditKind::Splice;
  if (slot == 4 || slot == 10 || slot == 15) return EditKind::Toggle;
  return EditKind::Weight;
}

/// An event to edit: half the time a member of the last answer (so the
/// optimum moves), else any reachable event.
std::string pick_event(Rng& rng, const ModelState& s, const std::vector<std::string>& last_answer,
                       const std::vector<std::uint32_t>& events) {
  if (!last_answer.empty() && uniform(rng, 0, 1) < 0.5) {
    return last_answer[rng() % last_answer.size()];
  }
  return s.model.nodes[events[rng() % events.size()]].name;
}

/// Makes the next edit of model `model` and applies it to `s`, a copy of
/// the model's state that is kept only if the service accepts the edit.
Edit make_edit(Rng& rng, ModelState& s, const std::vector<std::string>& last_answer,
               std::size_t model, std::uint64_t index) {
  Edit e;
  e.model = model;
  const std::vector<std::uint32_t> events = s.model.events();
  EditKind kind = kind_at(index);
  if (kind == EditKind::Toggle) {
    EditOp op;
    op.kind = EditKind::Toggle;
    if (s.disabled >= 0) {
      op.target = s.model.nodes[static_cast<std::size_t>(s.disabled)].name;
      op.enabled = true;
      s.disabled = -1;
    } else {
      // Disable an event whose loss leaves a cut of non-zero probability:
      // an answer of probability 0 is written as an invalid JSON number
      // (CHANGES.md, FOUND), so such toggles are left out.
      for (int attempt = 0; attempt < 20 && op.target.empty(); ++attempt) {
        const std::string name = pick_event(rng, s, last_answer, events);
        Node& n = s.model.nodes[static_cast<std::size_t>(s.model.find(name))];
        n.enabled = false;
        if (dp_optimum(s.model).impossible == 0) {
          op.target = name;
          s.disabled = s.model.find(name);
        }
        n.enabled = true;
      }
      op.enabled = false;
    }
    if (!op.target.empty()) {
      apply_op(s.model, op);
      e.ops.push_back(std::move(op));
      return e;
    }
    kind = EditKind::Weight;
  }
  if (kind == EditKind::Splice) {
    // Replace a small gate's subtree with a new gate over some of its own
    // events plus fresh ones: the model stays tree-shaped, so the DP oracle
    // stays exact.
    std::vector<std::uint32_t> parent(s.model.nodes.size(), 0);
    for (const std::uint32_t id : s.model.topo_order()) {
      for (const std::uint32_t c : s.model.nodes[id].kids) parent[c] = id;
    }
    std::uint32_t gate = parent[events[rng() % events.size()]];
    if (gate == s.model.top) gate = parent[events[rng() % events.size()]];
    if (gate != s.model.top) {
      const std::size_t n = s.splices++;
      const std::string tag = std::to_string(n);
      std::vector<std::uint32_t> old;
      for (const std::uint32_t ev : events) {
        for (std::uint32_t at = ev; at != s.model.top; at = parent[at]) {
          if (at == gate) {
            old.push_back(ev);
            break;
          }
        }
      }
      Model rep;
      std::vector<std::uint32_t> kids;
      std::shuffle(old.begin(), old.end(), rng);
      for (std::size_t i = 0; i < std::min<std::size_t>(old.size(), 2); ++i) {
        const Node& ev = s.model.nodes[old[i]];
        kids.push_back(rep.add_event(ev.name, ev.p));
      }
      kids.push_back(rep.add_event("x" + tag + "_0", log_uniform(rng, 1e-3, 0.2)));
      const std::uint32_t a = rep.add_event("x" + tag + "_1", log_uniform(rng, 1e-3, 0.2));
      const std::uint32_t b = rep.add_event("x" + tag + "_2", log_uniform(rng, 1e-3, 0.2));
      kids.push_back(rep.add_gate("s" + tag, uniform(rng, 0, 1) < 0.5 ? Kind::And : Kind::Or,
                                  {a, b}));
      const double coin = uniform(rng, 0, 1);
      const Kind root = coin < 0.4 ? Kind::Or : coin < 0.7 ? Kind::And : Kind::Vote;
      const std::string gate_name = s.model.nodes[gate].name;
      rep.top = rep.add_gate(gate_name, root, std::move(kids),
                             root == Kind::Vote ? 2 : 0);
      EditOp op;
      op.kind = EditKind::Splice;
      op.target = gate_name;
      op.splice = std::move(rep);
      apply_op(s.model, op);
      if (s.disabled >= 0 && s.model.nodes[static_cast<std::size_t>(s.disabled)].enabled) {
        s.disabled = -1;
      }
      e.ops.push_back(std::move(op));
      return e;
    }
  }
  const std::size_t count = 1 + rng() % 3;
  for (std::size_t i = 0; i < count; ++i) {
    EditOp op;
    op.kind = EditKind::Weight;
    op.target = pick_event(rng, s, last_answer, events);
    op.p = log_uniform(rng, 1e-4, 0.2);
    apply_op(s.model, op);
    e.ops.push_back(std::move(op));
  }
  return e;
}

std::vector<Resource> make_resources(std::uint64_t seed) {
  // Random AND/OR trees and one AND ladder registered with the stratified
  // solver; tree shape keeps the DP oracle exact on every edit. The trees
  // carry no vote gates: on vote-bearing trees a weight-only PATCH now and
  // then runs into the request deadline (CHANGES.md, FOUND).
  constexpr std::size_t kModels = 24, kLadder = 11;
  Rng rng = seeded(seed, 3);
  std::vector<Resource> out(kModels);
  const auto sizes = stratified_sizes(rng, kModels, 2000, 5000, 0.5);
  for (std::size_t i = 0; i < kModels; ++i) {
    out[i].state.model = i == kLadder ? ladder(rng, sizes[i], true, false)
                                      : random_dag(rng, sizes[i], 0.0, 0.0);
  }
  out[kLadder].stratified = true;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].format = static_cast<Format>(i % 3);
    out[i].tenant = "bench" + std::to_string(i % 2);
    out[i].doc = write_document(out[i].state.model, out[i].format);
  }
  return out;
}

/// Checks one PATCH answer against the benchmark's edited model.
std::string check_edit_answer(Run& r, const Model& m, const std::vector<std::string>& names,
                              double probability, double log_cost) {
  std::string err;
  const auto cut = model_cut(m, names, &err);
  if (!err.empty()) return err;
  const Evaluator ev(m);
  return check_answer(m, ev, expect(m, 0), cut, probability, log_cost, r.scale);
}

struct Service {
  std::unique_ptr<fta::service::SolveService> svc;
  std::unique_ptr<fta::service::HttpServer> server;
  std::unique_ptr<HttpConnection> conn;

  Service() {
    svc = std::make_unique<fta::service::SolveService>();
    auto* s = svc.get();
    server = std::make_unique<fta::service::HttpServer>(
        fta::service::HttpServerOptions{},
        [s](const fta::service::HttpRequest& req) { return s->handle(req); });
    conn = std::make_unique<HttpConnection>(server->port());
  }
  ~Service() {
    conn.reset();
    svc->begin_shutdown();
    server->shutdown();
  }
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;
};

void register_trees(Service& s, std::vector<Resource>& resources) {
  for (Resource& res : resources) {
    std::string body =
        "{\"tenant\": " + json_quote(res.tenant) + ", \"tree\": " + json_quote(res.doc);
    if (res.stratified) body += ", \"solver\": \"stratified\"";
    body += "}";
    std::string reply;
    const int status = s.conn->request("POST", "/v1/trees", body, &reply);
    const JValue v = parse_json(reply);
    if (status != 201) throw std::runtime_error("POST /v1/trees answered " + reply);
    res.id = v.str("id");
    res.etag = v.str("etag");
  }
}

struct PatchObservation {
  Edit edit;
  double service_seconds = 0.0;  ///< The handler time the service reports.
};

void run_whatif(Run& r) {
  std::vector<Resource> resources;
  std::unique_ptr<Service> service;
  for (int i = 0; i < kSetupRepeats; ++i) {
    service.reset();
    const double t0 = wall_now();
    resources = make_resources(r.args.seed);
    service = std::make_unique<Service>();
    register_trees(*service, resources);
    r.setups.push_back(wall_now() - t0);
  }
  const std::vector<Resource> registered = resources;
  Rng rng = seeded(r.args.seed, 4);
  std::uint64_t edits = 0;
  std::vector<PatchObservation> observed;

  // Traced runs alternate traced and untraced rotations over the models
  // (see run_rounds).
  const double end = wall_now() + r.args.seconds;
  do {
    const bool traced = r.args.trace && (edits / resources.size()) % 2 == 0;
    std::vector<OpRecord>& records = traced ? r.traced : r.untraced;
    const std::uint64_t op = r.next_op++;
    const std::size_t m = edits % resources.size();
    Resource& res = resources[m];
    ModelState next = res.state;
    Edit edit = make_edit(rng, next, res.last_answer, m, edits++);
    const std::string body = "{\"tenant\": " + json_quote(res.tenant) +
                             ", \"etag\": " + json_quote(res.etag) +
                             ", \"delta\": " + edit_json(edit) +
                             ", \"deadline_ms\": " + std::to_string(kPatchDeadlineMs) + "}";
    const std::string path = "/v1/trees/" + res.id;
    std::string reply;
    const std::uint64_t prepares = core::MpmcsPipeline::prepare_calls();
    OpRecord rec;
    const double cpu0 = cpu_now();
    Scope span(r.tracer_if(traced), "http.PATCH", op);
    const int status = service->conn->request("PATCH", path, body, &reply);
    rec.wall = span.stop();
    rec.cpu = cpu_now() - cpu0;

    JValue v;
    try {
      v = parse_json(reply);
    } catch (const std::exception& e) {
      r.wrong("PATCH reply is not JSON (" + std::string(e.what()) + "): " + reply);
    }
    const JValue* sol = v.get("solution");
    rec.failed = status != 200 || v.str("status") != "optimal" || sol == nullptr;
    records.push_back(rec);
    if (!v.str("etag").empty()) res.etag = v.str("etag");
    // A 200 means the service applied the edit, whatever its answer; any
    // other status means it refused it, and the benchmark's copy and the
    // replays leave it out too.
    if (status == 200) {
      res.state = std::move(next);
      if (r.args.trace && observed.size() < kReplayEdits) {
        observed.push_back({std::move(edit), v.num("seconds")});
      }
    }
    // No PATCH may fail: a failure fails the run instead of dropping out of
    // the rates.
    if (rec.failed) {
      r.wrong("PATCH " + path + " failed (" + std::to_string(status) +
              "): " + reply.substr(0, 300));
      continue;
    }
    std::vector<std::string> names;
    if (const JValue* cut = sol->get("mpmcs")) {
      for (const JValue& n : cut->items) names.push_back(n.string);
    }
    const std::string err = check_edit_answer(r, res.state.model, names,
                                              sol->num("probability"), sol->num("logCost"));
    if (!err.empty()) r.wrong("PATCH " + path + ": " + err);
    res.last_answer = names;
    if (!traced) continue;
    r.layers.add("http.transport_ms", 1e3 * (rec.wall - v.num("seconds")));
    record_answer(r, sol->str("solver"), sol->num("satConflicts"),
                  sol->num("satPropagations"));
    const JValue* delta = v.get("delta");
    if (delta && delta->get("sessionRebased") && delta->get("sessionRebased")->boolean) {
      r.layers.count("rebased");
    }
    r.layers.count("prepare_calls",
                   static_cast<double>(core::MpmcsPipeline::prepare_calls() - prepares));
  } while (wall_now() < end);
  if (!r.args.trace) return;
  {
    std::string reply;
    service->conn->request("GET", "/v1/statsz", "", &reply);
    const JValue* res = parse_json(reply).get("resilience");
    r.layers.count("engine.session_resets", res ? res->num("sessionResets") : 0.0);
  }
  service.reset();

  // Replay 1: the same edits through AnalysisEngine::analyze, on an engine
  // configured exactly as the service configures its own. Self times are
  // paired per edit: service = its reported handler time minus the engine
  // call, engine = the engine call minus the pipeline calls (replay 2).
  std::vector<double> engine_seconds;
  {
    std::vector<Resource> mirror = registered;
    fta::service::SolveService svc;
    std::vector<std::string> ids;
    for (Resource& res : mirror) {
      core::PipelineOptions popts = svc.options().pipeline;
      if (res.stratified) popts.solver = core::SolverChoice::Stratified;
      const double t0 = wall_now();
      fta::ft::FaultTree tree = fta::format::parse_tree(res.doc, {}, std::string("m") + format_ext(res.format));
      r.layers.add("format.parse_ms", 1e3 * (wall_now() - t0));
      r.layers.count("format.bytes", static_cast<double>(res.doc.size()));
      r.layers.count("format.seconds", wall_now() - t0);
      ids.push_back(svc.engine().create_tree(std::move(tree), popts));
    }
    for (const PatchObservation& obs : observed) {
      Resource& res = mirror[obs.edit.model];
      for (const EditOp& op : obs.edit.ops) apply_op(res.state.model, op);
      fta::engine::AnalysisRequest req;
      req.id = "replay";
      req.tree_id = ids[obs.edit.model];
      req.delta = program_delta(obs.edit);
      req.kind = fta::engine::AnalysisKind::Mpmcs;
      req.pipeline = svc.options().pipeline;
      req.timeout_seconds = kPatchDeadlineMs / 1e3;
      Scope s(&r.tracer, "engine.analyze", r.next_op++);
      const fta::engine::AnalysisResult out = svc.engine().analyze(std::move(req)).result.get();
      engine_seconds.push_back(s.stop());
      r.layers.add("service.self_ms", 1e3 * (obs.service_seconds - engine_seconds.back()));
      if (!out.ok) {
        r.wrong("engine replay failed: " + out.error);
        continue;
      }
      const auto snap = svc.engine().tree_snapshot(ids[obs.edit.model]);
      const std::string err = check_edit_answer(r, res.state.model, cut_names(*snap, out.mpmcs.cut),
                                                out.mpmcs.probability, out.mpmcs.log_cost);
      if (!err.empty()) r.wrong("engine replay: " + err);
    }
  }

  // Replay 2: MpmcsPipeline::apply_delta then solve_prepared, the pipeline
  // calls inside the engine.
  struct Solved {
    std::uint64_t op = 0;
    double solve = 0.0, step5 = 0.0;
    std::optional<fta::ft::CutSet> cut;
  };
  std::vector<Solved> solved;
  std::vector<Resource> mirror = registered;
  std::vector<fta::ft::FaultTree> trees;
  std::vector<core::PreparedInstance> prepared;
  std::vector<core::MpmcsPipeline> pipelines;
  for (Resource& res : mirror) {
    core::PipelineOptions popts;
    if (res.stratified) popts.solver = core::SolverChoice::Stratified;
    pipelines.emplace_back(popts);
    trees.push_back(fta::format::parse_tree(res.doc, {}, std::string("m") + format_ext(res.format)));
    prepared.push_back(pipelines.back().prepare(trees.back()));
  }
  // On a thread of its own, as the engine runs analyze on a pool thread:
  // on the main thread, whose heap the earlier passes churned, the same
  // calls ran ~4 ms slower per edit.
  const auto replay = [&] {
    for (std::size_t i = 0; i < observed.size(); ++i) {
      const PatchObservation& obs = observed[i];
      const std::size_t m = obs.edit.model;
      Resource& res = mirror[m];
      for (const EditOp& op : obs.edit.ops) apply_op(res.state.model, op);
      const fta::ft::TreeDelta delta = program_delta(obs.edit);
      const std::uint64_t op = r.next_op++;
      core::MpmcsSolution sol;
      double solve_s = 0.0;
      Scope whole(&r.tracer, "pipeline.edit", op);
      {
        Scope s(&r.tracer, "ft.apply_delta", op);
        fta::ft::FaultTree next = fta::ft::apply_delta(trees[m], delta);
        s.stop();
        Scope d(&r.tracer, "core.apply_delta", op);
        pipelines[m].apply_delta(next, delta, prepared[m]);
        r.layers.add("core.delta_ms", 1e3 * d.stop());
        trees[m] = std::move(next);
      }
      {
        const double c = cpu_now();
        Scope s(&r.tracer, "core.solve_prepared", op);
        sol = pipelines[m].solve_prepared(trees[m], prepared[m]);
        solve_s = s.stop();
        r.layers.count("step5.cpu", cpu_now() - c);
        r.layers.count("step5.wall", solve_s);
      }
      r.layers.add("engine.self_ms", 1e3 * (engine_seconds[i] - whole.stop()));
      r.layers.add("maxsat.step5_ms", 1e3 * sol.solve_seconds);
      solved.push_back({op, solve_s, sol.solve_seconds, std::nullopt});
      if (sol.status != fta::maxsat::MaxSatStatus::Optimal) {
        r.wrong("pipeline replay did not reach the optimum");
        continue;
      }
      const std::string err = check_edit_answer(r, res.state.model, cut_names(trees[m], sol.cut),
                                                sol.probability, sol.log_cost);
      if (!err.empty()) r.wrong("pipeline replay: " + err);
      solved.back().cut = sol.cut;
    }
  };
  std::exception_ptr failure;
  std::thread([&] {
    try {
      replay();
    } catch (...) {
      failure = std::current_exception();
    }
  }).join();
  if (failure) std::rethrow_exception(failure);

  // Layer probes on every edited state, in a pass of their own so their
  // cache and allocator traffic stays out of the timed replays.
  std::vector<fta::ft::FaultTree> states;
  for (const Resource& res : registered) {
    states.push_back(
        fta::format::parse_tree(res.doc, {}, std::string("m") + format_ext(res.format)));
  }
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const std::size_t m = observed[i].edit.model;
    states[m] = fta::ft::apply_delta(states[m], program_delta(observed[i].edit));
    if (!solved[i].cut) continue;
    const ProbeTimes p = probe_layers(r, solved[i].op, states[m], *solved[i].cut,
                                      /*context_shrink=*/true, registered[m].stratified);
    r.layers.add("core.unattributed_ms",
                 1e3 * (solved[i].solve - solved[i].step5 - p.shrink));
  }
}

// --- results -------------------------------------------------------------------

struct Metric {
  std::string name, unit;
  double value;
};

/// Rates count completed operations over the time they took; medians sort
/// failed operations last. The CPU figure is a median too: the portfolio
/// race makes per-operation CPU heavy-tailed.
std::vector<Metric> end_to_end(const Run& r) {
  std::vector<double> latencies, cpu;
  double wall = 0.0;
  std::size_t done = 0;
  for (const OpRecord& op : r.untraced) {
    latencies.push_back(op.failed ? INFINITY : op.wall);
    cpu.push_back(op.failed ? INFINITY : op.cpu);
    if (op.failed) continue;
    ++done;
    wall += op.wall;
  }
  return {
      {"setup_s", "s", median(r.setups)},
      {"peak_rss_mb", "MiB", peak_rss_mb()},
      {"ops_per_s", "1/s", done ? static_cast<double>(done) / wall : 0.0},
      {"op_p50_ms", "ms", 1e3 * median(latencies)},
      {"cpu_ms_per_op", "ms", 1e3 * median(cpu)},
  };
}

/// The solver labels the program reports; anything else counts as "other".
const char* const kSolverLabels[] = {"oll",      "oll-strat", "fu-malik", "lsu",
                                     "oll-raw",  "lsu-raw",   "oll-circ", "lsu-circ",
                                     "oll-inc",  "lsu-inc",   "stratified"};

std::vector<Metric> per_layer(Run& r) {
  const Layers& L = r.layers;
  const auto p50 = [&](const char* name) { return L.p50(name); };
  const auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double answers = L.total("answers");
  std::vector<Metric> out = {
      {"format.parse_ms", "ms", p50("format.parse_ms")},
      {"format.parse_mb_per_s", "MB/s",
       share(L.total("format.bytes") / 1e6, L.total("format.seconds"))},
      {"core.encode_ms", "ms", p50("core.encode_ms")},
      {"preprocess.simplify_ms", "ms", p50("preprocess.simplify_ms")},
      {"preprocess.removed_var_share", "share",
       share(L.total("preprocess.removed"), L.total("preprocess.vars"))},
      {"maxsat.step5_ms", "ms", p50("maxsat.step5_ms")},
      {"maxsat.cpu_per_wall", "ratio", share(L.total("step5.cpu"), L.total("step5.wall"))},
      {"maxsat.plan_ms", "ms", p50("maxsat.plan_ms")},
  };
  double named = 0.0;
  for (const char* label : kSolverLabels) {
    const double wins = L.total(std::string("win.") + label);
    named += wins;
    out.push_back({std::string("maxsat.win.") + label, "share", share(wins, answers)});
  }
  out.push_back({"maxsat.win.other", "share", share(answers - named, answers)});
  const std::size_t traced_ops = r.traced.size();
  std::vector<double> client;
  for (const OpRecord& op : r.untraced) client.push_back(op.failed ? INFINITY : op.wall);
  std::vector<double> traced_lat;
  for (const OpRecord& op : r.traced) traced_lat.push_back(op.failed ? INFINITY : op.wall);
  const double overhead = median(traced_lat) - median(client);
  const std::vector<Metric> rest = {
      {"sat.conflicts_per_op", "count", share(L.total("sat.conflicts"), answers)},
      {"sat.propagations_per_op", "count", share(L.total("sat.propagations"), answers)},
      {"core.topk_ms", "ms", p50("core.topk_ms")},
      {"ft.shrink_ms", "ms", p50("ft.shrink_ms")},
      {"ft.shrink_context_ms", "ms", p50("ft.shrink_context_ms")},
      {"ft.to_json_ms", "ms", p50("ft.to_json_ms")},
      {"core.delta_ms", "ms", p50("core.delta_ms")},
      {"core.prepare_calls_per_op", "count",
       share(L.total("prepare_calls"), static_cast<double>(traced_ops))},
      {"engine.self_ms", "ms", p50("engine.self_ms")},
      {"engine.rebased_share", "share", share(L.total("rebased"), static_cast<double>(traced_ops))},
      {"engine.session_resets", "count", L.total("engine.session_resets")},
      {"service.self_ms", "ms", p50("service.self_ms")},
      {"http.transport_ms", "ms", p50("http.transport_ms")},
      {"core.unattributed_ms", "ms", p50("core.unattributed_ms")},
      {"client.op_p90_ms", "ms", 1e3 * quantile(client, 0.9)},
      {"client.op_samples", "count", static_cast<double>(client.size())},
      {"trace.overhead_ms", "ms", 1e3 * overhead},
      {"trace.overhead_share", "share", share(overhead, median(client))},
  };
  out.insert(out.end(), rest.begin(), rest.end());
  return out;
}

void write_trace_files(Run& r) {
  fs::create_directories(r.args.out);
  const std::string stem =
      r.args.out + "/" + r.args.workload + "-seed" + std::to_string(r.args.seed);
  r.tracer.write_chrome_trace(stem + ".trace.json");
  std::ofstream(stem + ".layers.json") << r.tracer.summary_json();
  std::fprintf(stderr, "trace: %s.trace.json, per-span summary: %s.layers.json\n",
               stem.c_str(), stem.c_str());
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--repo") a.repo = v;
    else if (k == "--out") a.out = v;
    else throw std::invalid_argument("unknown option " + k);
  }
  if (a.workload != "oneshot" && a.workload != "whatif") {
    throw std::invalid_argument("--workload must be oneshot or whatif");
  }
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  try {
    r.args = parse_args(argc, argv);
    if (r.args.workload == "whatif") run_whatif(r);
    else run_oneshot(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 2;
  }
  std::size_t attempted = r.untraced.size() + r.traced.size(), failed = 0;
  for (const auto* v : {&r.untraced, &r.traced}) {
    for (const OpRecord& op : *v) failed += op.failed ? 1 : 0;
  }
  const std::vector<Metric> metrics = r.args.trace ? per_layer(r) : end_to_end(r);
  if (r.args.trace) write_trace_files(r);
  std::string json = "{\"correct\": " + std::string(r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    json += (i ? ", " : "") + json_quote(m.name) + ": {\"value\": " + fmt_double(m.value) +
            ", \"unit\": " + json_quote(m.unit) + "}";
  }
  std::printf("%s}}\n", json.c_str());
  // A wrong answer, or a failure outside the counted share, fails the run.
  return r.correct ? 0 : 1;
}
