#include "preprocess/preprocess.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "util/timer.hpp"

namespace fta::preprocess {

namespace {

using logic::Clause;
using logic::LBool;
using logic::Lit;
using logic::Var;

/// One bit per variable (mod 64): a cheap necessary condition for clause
/// inclusion, à la SatELite's abstraction signatures.
std::uint64_t signature(const Clause& c) {
  std::uint64_t sig = 0;
  for (const Lit l : c) sig |= std::uint64_t{1} << (l.var() & 63u);
  return sig;
}

class Simplifier {
 public:
  Simplifier(const maxsat::WcnfInstance& instance,
             const std::vector<bool>& extra_frozen,
             const PreprocessOptions& opts, util::CancelTokenPtr cancel)
      : opts_(opts),
        cancel_(std::move(cancel)),
        instance_(instance),
        num_vars_(instance.num_vars()),
        occ_(2 * std::size_t{instance.num_vars()}),
        values_(instance.num_vars(), LBool::Undef),
        frozen_(instance.num_vars(), false),
        removed_(instance.num_vars(), false) {
    for (const auto& s : instance.soft()) {
      for (const Lit l : s.lits) frozen_[l.var()] = true;
    }
    for (Var v = 0; v < num_vars_ && v < extra_frozen.size(); ++v) {
      if (extra_frozen[v]) frozen_[v] = true;
    }
  }

  PreprocessResult run() {
    util::Timer timer;
    load_hard_clauses();
    propagate();
    // Order within a round: cheap structural passes first (equivalences,
    // BCE) to thin the formula, then BVE, then subsumption to absorb the
    // redundancy the resolvents introduce. Equivalences stop re-running
    // once a pass finds nothing (SCCs are rare in tree-shaped encodings
    // and the Tarjan sweep is the priciest constant).
    // Cancellation is polled between passes: stopping early leaves a
    // sound (just less simplified) instance, so deadlines bound this
    // phase at pass granularity.
    const auto cancelled = [this] {
      return cancel_ && cancel_->cancelled();
    };
    bool equiv_productive = opts_.equivalences;
    while (!unsat_ && !cancelled() && stats_.rounds < opts_.max_rounds) {
      ++stats_.rounds;
      changed_ = false;
      if (equiv_productive && !unsat_) {
        util::Timer t;
        const std::size_t before = stats_.substituted_vars;
        substitute_equivalences();
        propagate();
        equiv_productive = stats_.substituted_vars > before;
        stats_.equivalence_seconds += t.seconds();
      }
      if (opts_.bce && !unsat_ && !cancelled()) {
        util::Timer t;
        run_bce();
        propagate();
        stats_.bce_seconds += t.seconds();
      }
      if (opts_.bve && !unsat_ && !cancelled()) {
        util::Timer t;
        run_bve();
        propagate();
        stats_.bve_seconds += t.seconds();
      }
      if (opts_.subsumption && !unsat_ && !cancelled()) {
        util::Timer t;
        run_subsumption();
        propagate();
        stats_.subsumption_seconds += t.seconds();
      }
      if (!changed_) break;
    }
    PreprocessResult result = build_result();
    result.stats.seconds = timer.seconds();
    return result;
  }

 private:
  struct ClauseInfo {
    Clause lits;  ///< Sorted by literal code, no duplicates.
    std::uint64_t sig = 0;
    bool dead = false;
  };

  LBool value(Lit l) const { return logic::lit_value(l, values_[l.var()]); }

  static bool contains(const ClauseInfo& ci, Lit l) {
    return std::binary_search(ci.lits.begin(), ci.lits.end(), l);
  }

  enum class Normalized : std::uint8_t { Ok, Tautology };

  /// Sorts and deduplicates `c` in place; detects p-and-~p tautologies.
  static Normalized normalize(Clause& c) {
    std::sort(c.begin(), c.end());
    c.erase(std::unique(c.begin(), c.end()), c.end());
    for (std::size_t i = 0; i + 1 < c.size(); ++i) {
      if (c[i].var() == c[i + 1].var()) return Normalized::Tautology;
    }
    return Normalized::Ok;
  }

  /// Appends a normalised clause to the database and occurrence lists.
  void attach(Clause lits) {
    const std::uint32_t idx = static_cast<std::uint32_t>(clauses_.size());
    ClauseInfo ci;
    ci.sig = signature(lits);
    ci.lits = std::move(lits);
    clauses_.push_back(std::move(ci));
    for (const Lit l : clauses_.back().lits) occ_[l.index()].push_back(idx);
    dirty_.push_back(idx);
    if (clauses_.back().lits.size() == 2) binaries_dirty_ = true;
  }

  void kill(std::uint32_t idx) { clauses_[idx].dead = true; }

  /// Removes `l` from a live clause (occurrence lists are left stale and
  /// filtered on scan). Empty -> UNSAT, unit -> enqueued.
  void strengthen(std::uint32_t idx, Lit l) {
    ClauseInfo& ci = clauses_[idx];
    ci.lits.erase(std::find(ci.lits.begin(), ci.lits.end(), l));
    ci.sig = signature(ci.lits);
    dirty_.push_back(idx);
    if (ci.lits.size() == 2) binaries_dirty_ = true;
    if (ci.lits.empty()) {
      unsat_ = true;
    } else if (ci.lits.size() == 1) {
      assign(ci.lits[0]);
    }
  }

  /// Level-0 assignment making `l` true; conflicts set unsat_.
  void assign(Lit l) {
    const LBool v = value(l);
    if (v == LBool::True) return;
    if (v == LBool::False) {
      unsat_ = true;
      return;
    }
    values_[l.var()] = logic::lbool_of(!l.negated());
    recon_.record_fixed(l);
    ++stats_.fixed_vars;
    unit_queue_.push_back(l);
    changed_ = true;
  }

  void propagate() {
    while (!unit_queue_.empty() && !unsat_) {
      const Lit l = unit_queue_.back();
      unit_queue_.pop_back();
      // Clauses satisfied by l die; clauses containing ~l lose it.
      for (const std::uint32_t idx : occ_[l.index()]) {
        if (!clauses_[idx].dead && contains(clauses_[idx], l)) kill(idx);
      }
      const Lit nl = ~l;
      // Snapshot: strengthen() may reallocate nothing here, but assign()
      // keeps growing unit_queue_, never this occurrence list.
      for (const std::uint32_t idx : occ_[nl.index()]) {
        if (clauses_[idx].dead || !contains(clauses_[idx], nl)) continue;
        strengthen(idx, nl);
        if (unsat_) return;
      }
    }
  }

  void load_hard_clauses() {
    Clause scratch;
    for (const Clause& raw : instance_.hard()) {
      scratch = raw;
      if (normalize(scratch) == Normalized::Tautology) continue;
      if (scratch.empty()) {
        unsat_ = true;
        return;
      }
      stats_.original_literals += scratch.size();
      attach(scratch);
    }
    stats_.original_clauses = instance_.hard().size();
    // Input units start the level-0 propagation (the clause itself is
    // then killed as satisfied).
    for (const ClauseInfo& ci : clauses_) {
      if (ci.lits.size() == 1) assign(ci.lits[0]);
      if (unsat_) return;
    }
  }

  // --- equivalent-literal substitution ----------------------------------

  /// Tarjan SCCs over the binary implication graph; literals in one
  /// component are pairwise equivalent and collapse onto one
  /// representative (frozen variables are preferred as representatives
  /// and never substituted away themselves).
  void substitute_equivalences() {
    // Edge *removal* (killed/satisfied binaries) can only shrink SCCs;
    // new equivalences need new or shortened binary clauses.
    if (!binaries_dirty_) return;
    binaries_dirty_ = false;
    // CSR adjacency (two passes over the binaries): per-node vectors cost
    // more to allocate than the whole Tarjan sweep on these sizes.
    const std::size_t n = 2 * std::size_t{num_vars_};
    std::vector<std::uint32_t> head(n + 1, 0);
    std::size_t num_edges = 0;
    for (const ClauseInfo& ci : clauses_) {
      if (ci.dead || ci.lits.size() != 2) continue;
      ++head[(~ci.lits[0]).index() + 1];
      ++head[(~ci.lits[1]).index() + 1];
      num_edges += 2;
    }
    if (num_edges == 0) return;
    for (std::size_t i = 0; i < n; ++i) head[i + 1] += head[i];
    std::vector<std::uint32_t> edges(num_edges);
    {
      std::vector<std::uint32_t> fill(head.begin(), head.end() - 1);
      for (const ClauseInfo& ci : clauses_) {
        if (ci.dead || ci.lits.size() != 2) continue;
        const Lit a = ci.lits[0], b = ci.lits[1];
        edges[fill[(~a).index()]++] = b.index();
        edges[fill[(~b).index()]++] = a.index();
      }
    }
    const auto out_begin = [&](std::uint32_t u) { return head[u]; };
    const auto out_end = [&](std::uint32_t u) { return head[u + 1]; };

    // Iterative Tarjan.
    constexpr std::uint32_t kUnvisited = 0xffffffffu;
    std::vector<std::uint32_t> index(n, kUnvisited), lowlink(n, 0);
    std::vector<std::uint32_t> comp(n, kUnvisited);
    std::vector<bool> on_stack(n, false);
    std::vector<std::uint32_t> stack;
    std::uint32_t next_index = 0, next_comp = 0;
    struct Frame {
      std::uint32_t node;
      std::size_t child;
    };
    std::vector<Frame> dfs;
    for (std::uint32_t root = 0; root < n; ++root) {
      if (index[root] != kUnvisited || out_begin(root) == out_end(root)) {
        continue;
      }
      dfs.push_back({root, 0});
      while (!dfs.empty()) {
        Frame& f = dfs.back();
        const std::uint32_t u = f.node;
        if (index[u] == kUnvisited) {
          index[u] = lowlink[u] = next_index++;
          stack.push_back(u);
          on_stack[u] = true;
          f.child = out_begin(u);
        }
        if (f.child < out_end(u)) {
          const std::uint32_t w = edges[f.child++];
          if (index[w] == kUnvisited) {
            dfs.push_back({w, 0});
          } else if (on_stack[w]) {
            lowlink[u] = std::min(lowlink[u], index[w]);
          }
        } else {
          if (lowlink[u] == index[u]) {
            while (true) {
              const std::uint32_t w = stack.back();
              stack.pop_back();
              on_stack[w] = false;
              comp[w] = next_comp;
              if (w == u) break;
            }
            ++next_comp;
          }
          dfs.pop_back();
          if (!dfs.empty()) {
            Frame& parent = dfs.back();
            lowlink[parent.node] =
                std::min(lowlink[parent.node], lowlink[u]);
          }
        }
      }
    }

    // Members per component, in deterministic (literal-index) order.
    std::vector<std::vector<Lit>> members(next_comp);
    for (std::uint32_t i = 0; i < n; ++i) {
      if (comp[i] != kUnvisited) {
        members[comp[i]].push_back(Lit::from_index(i));
      }
    }

    std::vector<Lit> rep(n, logic::kNoLit);
    std::vector<Var> substituted;
    for (const auto& scc : members) {
      if (scc.size() < 2) continue;
      if (rep[scc.front().index()].valid()) continue;  // mirror done below
      // l and ~l in one component: the formula is unsatisfiable.
      Lit r = logic::kNoLit;
      for (const Lit l : scc) {
        if (comp[l.index()] == comp[(~l).index()]) {
          unsat_ = true;
          return;
        }
        if (!r.valid() || (frozen_[l.var()] && !frozen_[r.var()])) r = l;
      }
      for (const Lit l : scc) {
        rep[l.index()] = r;
        rep[(~l).index()] = ~r;
        if (l.var() == r.var() || frozen_[l.var()]) continue;
        const Lit equiv = l.negated() ? ~r : r;  // pos(var) <-> equiv
        recon_.record_equivalence(l.var(), equiv);
        removed_[l.var()] = true;
        substituted.push_back(l.var());
        ++stats_.substituted_vars;
        changed_ = true;
      }
    }
    if (substituted.empty()) return;

    // Rewrite every clause mentioning a substituted variable. The full
    // map is applied in one go, so later variables find their clauses
    // already dead.
    Clause rebuilt;
    for (const Var v : substituted) {
      for (const Lit side : {Lit::pos(v), Lit::neg(v)}) {
        for (const std::uint32_t idx : occ_[side.index()]) {
          ClauseInfo& ci = clauses_[idx];
          if (ci.dead || !contains(ci, side)) continue;
          rebuilt.clear();
          for (const Lit l : ci.lits) {
            // Only substituted (hence non-frozen) variables map away.
            rebuilt.push_back(removed_[l.var()] && rep[l.index()].valid()
                                  ? rep[l.index()]
                                  : l);
          }
          kill(idx);
          if (normalize(rebuilt) == Normalized::Tautology) continue;
          if (rebuilt.size() == 1) {
            assign(rebuilt[0]);
            if (unsat_) return;
          } else {
            attach(rebuilt);
          }
        }
      }
    }
  }

  // --- subsumption and self-subsuming resolution ------------------------

  /// True iff every literal of `small` (with `flip` replaced by ~flip
  /// when valid) occurs in `big`; both clauses are sorted.
  static bool subset_with_flip(const Clause& small, const Clause& big,
                               Lit flip) {
    std::size_t j = 0;
    for (const Lit c : small) {
      const Lit want = (c == flip) ? ~c : c;
      while (j < big.size() && big[j] < want) ++j;
      if (j == big.size() || big[j] != want) return false;
      ++j;
    }
    return true;
  }

  void run_subsumption() {
    // Queue-driven: only clauses added or strengthened since the last
    // pass are candidates (every clause is dirty on the first pass, so
    // the first pass is a full one). Smallest first so short clauses
    // prune early; strengthened clauses re-enter at the back.
    std::vector<std::uint32_t> work;
    work.reserve(dirty_.size());
    std::sort(dirty_.begin(), dirty_.end());
    dirty_.erase(std::unique(dirty_.begin(), dirty_.end()), dirty_.end());
    for (const std::uint32_t i : dirty_) {
      if (!clauses_[i].dead) work.push_back(i);
    }
    dirty_.clear();
    std::stable_sort(work.begin(), work.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return clauses_[a].lits.size() <
                              clauses_[b].lits.size();
                     });
    for (std::size_t w = 0; w < work.size() && !unsat_; ++w) {
      const std::uint32_t ci_idx = work[w];
      if (clauses_[ci_idx].dead) continue;
      // Copy: strengthen() on *other* clauses can reallocate clauses_
      // entries it touches, but ci's own lits may also shrink if ci is
      // strengthened later in the worklist — the copy pins this pass.
      const Clause base = clauses_[ci_idx].lits;
      const std::uint64_t base_sig = clauses_[ci_idx].sig;

      // Scan the shortest occurrence list among base's literals.
      Lit best = base.front();
      for (const Lit l : base) {
        if (occ_[l.index()].size() < occ_[best.index()].size()) best = l;
      }
      for (const std::uint32_t d : occ_[best.index()]) {
        if (d == ci_idx || clauses_[d].dead) continue;
        const ClauseInfo& dc = clauses_[d];
        if (dc.lits.size() < base.size() || (base_sig & ~dc.sig) != 0)
          continue;
        if (subset_with_flip(base, dc.lits, logic::kNoLit)) {
          kill(d);
          ++stats_.subsumed_clauses;
          changed_ = true;
        }
      }

      // Self-subsuming resolution: base = A | l, other = A' | ~l with
      // A ⊆ A' lets us drop ~l from the other clause.
      for (const Lit l : base) {
        const Lit nl = ~l;
        for (const std::uint32_t d : occ_[nl.index()]) {
          if (clauses_[d].dead) continue;
          const ClauseInfo& dc = clauses_[d];
          if (d == ci_idx || dc.lits.size() < base.size()) continue;
          if ((base_sig & ~dc.sig) != 0) continue;
          if (!contains(dc, nl)) continue;
          if (!subset_with_flip(base, dc.lits, l)) continue;
          strengthen(d, nl);
          ++stats_.strengthened_clauses;
          changed_ = true;
          if (unsat_) return;
          if (!clauses_[d].dead && clauses_[d].lits.size() > 1) {
            work.push_back(d);
          }
        }
      }
    }
  }

  // --- blocked clause elimination ---------------------------------------

  /// A clause C is blocked on a non-frozen literal l when every resolvent
  /// of C with a clause containing ~l is tautological: C can be removed,
  /// and any model falsifying it is repaired by flipping var(l) (see
  /// ModelReconstructor::record_blocked). On full Tseitin encodings this
  /// removes the polarity-unused direction of each gate definition.
  /// True when `c` (clause index ci) is blocked on some non-frozen
  /// literal; `marked` must be all-zero and is restored before returning.
  Lit find_blocking_literal(std::uint32_t ci,
                            std::vector<std::uint8_t>& marked) {
    const Clause& c = clauses_[ci].lits;
    for (const Lit l : c) marked[l.index()] = 1;
    Lit blocking = logic::kNoLit;
    for (const Lit l : c) {
      if (frozen_[l.var()]) continue;
      bool all_taut = true;
      const Lit nl = ~l;
      for (const std::uint32_t d : occ_[nl.index()]) {
        if (clauses_[d].dead || d == ci || !contains(clauses_[d], nl)) {
          continue;
        }
        bool taut = false;
        for (const Lit a : clauses_[d].lits) {
          if (a != nl && marked[(~a).index()] != 0) {
            taut = true;
            break;
          }
        }
        if (!taut) {
          all_taut = false;
          break;
        }
      }
      if (all_taut) {
        blocking = l;
        break;
      }
    }
    for (const Lit l : c) marked[l.index()] = 0;
    return blocking;
  }

  void run_bce() {
    // Queue-driven fixpoint: removing a clause D can only newly block
    // clauses that resolve with D, i.e. clauses holding the negation of
    // one of D's literals — exactly those re-enter the queue.
    std::vector<std::uint8_t> marked(2 * std::size_t{num_vars_}, 0);
    std::vector<std::uint8_t> queued(clauses_.size(), 0);
    std::vector<std::uint32_t> queue;
    queue.reserve(clauses_.size());
    for (std::uint32_t i = 0; i < clauses_.size(); ++i) {
      if (!clauses_[i].dead) {
        queue.push_back(i);
        queued[i] = 1;
      }
    }
    for (std::size_t qi = 0; qi < queue.size() && !unsat_; ++qi) {
      const std::uint32_t ci = queue[qi];
      queued[ci] = 0;
      if (clauses_[ci].dead) continue;
      const Lit blocking = find_blocking_literal(ci, marked);
      if (!blocking.valid()) continue;
      recon_.record_blocked(blocking, clauses_[ci].lits);
      kill(ci);
      ++stats_.blocked_clauses;
      changed_ = true;
      for (const Lit a : clauses_[ci].lits) {
        for (const std::uint32_t d : occ_[(~a).index()]) {
          if (clauses_[d].dead || queued[d] || !contains(clauses_[d], ~a)) {
            continue;
          }
          queued[d] = 1;
          queue.push_back(d);
        }
      }
    }
  }

  // --- bounded variable elimination -------------------------------------

  /// Resolvent of `a` (contains pos(v)) and `b` (contains neg(v)) by
  /// sorted merge. Returns false when tautological.
  static bool resolve(const Clause& a, const Clause& b, Var v,
                      Clause& out) {
    out.clear();
    std::size_t i = 0, j = 0;
    while (i < a.size() || j < b.size()) {
      Lit l;
      if (j == b.size() || (i < a.size() && a[i] < b[j])) {
        l = a[i++];
      } else if (i == a.size() || b[j] < a[i]) {
        l = b[j++];
      } else {
        l = a[i++];
        ++j;  // same literal in both
      }
      if (l.var() == v) continue;
      if (!out.empty() && out.back().var() == l.var()) return false;  // taut
      out.push_back(l);
    }
    return true;
  }

  void gather(Lit l, std::vector<std::uint32_t>& out) const {
    out.clear();
    for (const std::uint32_t idx : occ_[l.index()]) {
      if (!clauses_[idx].dead && contains(clauses_[idx], l)) {
        out.push_back(idx);
      }
    }
  }

  void run_bve() {
    std::vector<std::uint32_t> pos, neg;
    std::vector<Clause> resolvents;
    Clause resolvent;
    for (Var v = 0; v < num_vars_ && !unsat_; ++v) {
      if (frozen_[v] || removed_[v] || values_[v] != LBool::Undef) continue;
      gather(Lit::pos(v), pos);
      gather(Lit::neg(v), neg);
      const std::size_t before = pos.size() + neg.size();
      if (before == 0) continue;  // no longer occurs; nothing to witness
      const bool pure = pos.empty() || neg.empty();
      if (!pure && before > opts_.bve_occurrence_cap) continue;

      // Elimination is accepted only when it shrinks the formula on both
      // axes: no more clauses than removed (modulo the growth allowance)
      // and no more total literals. A clause-count-only rule, tried
      // first, traded 19% fewer clauses for 50% *more* literals on
      // Tseitin corpora — and unit propagation pays per literal.
      std::size_t removed_literals = 0;
      for (const std::uint32_t idx : pos) {
        removed_literals += clauses_[idx].lits.size();
      }
      for (const std::uint32_t idx : neg) {
        removed_literals += clauses_[idx].lits.size();
      }
      const auto literal_budget = static_cast<std::size_t>(
          static_cast<double>(removed_literals) * opts_.bve_literal_growth);
      resolvents.clear();
      std::size_t resolvent_literals = 0;
      bool too_big = false;
      for (const std::uint32_t p : pos) {
        for (const std::uint32_t n : neg) {
          if (!resolve(clauses_[p].lits, clauses_[n].lits, v, resolvent)) {
            continue;  // tautology
          }
          resolvent_literals += resolvent.size();
          resolvents.push_back(resolvent);
          if (resolvents.size() > before + opts_.bve_clause_growth ||
              resolvent_literals > literal_budget) {
            too_big = true;
            break;
          }
        }
        if (too_big) break;
      }
      if (too_big) continue;

      // Accepted: move the occurrences into the reconstruction witness,
      // then splice the resolvents in.
      std::vector<Clause> witness;
      witness.reserve(before);
      for (const std::uint32_t idx : pos) {
        witness.push_back(clauses_[idx].lits);
        kill(idx);
      }
      for (const std::uint32_t idx : neg) {
        witness.push_back(clauses_[idx].lits);
        kill(idx);
      }
      recon_.record_elimination(v, std::move(witness));
      removed_[v] = true;
      ++stats_.eliminated_vars;
      changed_ = true;
      for (Clause& r : resolvents) {
        if (r.empty()) {
          unsat_ = true;  // unreachable after UP, but stay safe
          break;
        }
        if (r.size() == 1) {
          assign(r[0]);
        } else {
          attach(std::move(r));
        }
      }
      // Propagate unit resolvents *now*: later eliminations record their
      // occurrence lists as reconstruction witnesses, and reverse replay
      // evaluates those witnesses before chronologically-earlier Fixed
      // records restore the forced values — witnesses must therefore
      // never mention a variable that is already assigned.
      propagate();
    }
  }

  // --- result assembly ---------------------------------------------------

  PreprocessResult build_result() {
    PreprocessResult result;
    result.unsat = unsat_;
    result.reconstructor = std::move(recon_);
    result.stats = stats_;
    maxsat::WcnfInstance out(num_vars_);
    if (!unsat_) {
      // Cardinality metadata survives verbatim: the pipeline freezes
      // every block variable, so no pass can eliminate or substitute
      // them and the layouts keep describing live variables.
      out.set_cards(instance_.cards());
      for (const ClauseInfo& ci : clauses_) {
        if (ci.dead) continue;
        result.stats.simplified_literals += ci.lits.size();
        ++result.stats.simplified_clauses;
        out.add_hard(ci.lits);
      }
      // Soft clauses survive verbatim (their variables are frozen) minus
      // literals decided at level 0; fully falsified softs become a
      // mandatory cost.
      Clause stripped;
      for (const auto& s : instance_.soft()) {
        stripped.clear();
        bool satisfied = false;
        for (const Lit l : s.lits) {
          const LBool lv = value(l);
          if (lv == LBool::True) satisfied = true;
          if (lv == LBool::Undef) stripped.push_back(l);
        }
        if (satisfied) continue;
        if (stripped.empty()) {
          result.cost_offset += s.weight;
        } else {
          out.add_soft(stripped, s.weight);
        }
      }
    }
    result.simplified = std::move(out);
    // Last: the soft-clause stripping above still reads values_.
    result.level0 = std::move(values_);
    return result;
  }

  const PreprocessOptions opts_;
  const util::CancelTokenPtr cancel_;
  const maxsat::WcnfInstance& instance_;
  const std::uint32_t num_vars_;

  std::vector<ClauseInfo> clauses_;
  std::vector<std::vector<std::uint32_t>> occ_;  ///< By Lit::index(); lazy.
  std::vector<LBool> values_;
  std::vector<bool> frozen_;
  std::vector<bool> removed_;  ///< Substituted or eliminated.
  std::vector<Lit> unit_queue_;
  std::vector<std::uint32_t> dirty_;  ///< Subsumption candidates.
  bool binaries_dirty_ = false;       ///< Rebuild the implication graph?
  ModelReconstructor recon_;
  PreprocessStats stats_;
  bool unsat_ = false;
  bool changed_ = false;
};

}  // namespace

PreprocessResult preprocess(const maxsat::WcnfInstance& instance,
                            const std::vector<bool>& extra_frozen,
                            const PreprocessOptions& opts,
                            util::CancelTokenPtr cancel) {
  return Simplifier(instance, extra_frozen, opts, std::move(cancel)).run();
}

}  // namespace fta::preprocess
