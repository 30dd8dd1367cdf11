#include "maxsat/stratified.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "analysis/modules.hpp"

namespace fta::maxsat {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

/// A gate whose children are basic events or modules, none repeated under
/// a vote (VOT(2; a, a, b) fires on a alone, so repeats change the count).
bool closed_form(const ft::FaultTree& tree, const std::vector<bool>& module,
                 ft::NodeIndex gate) {
  const ft::Node& n = tree.node(gate);
  for (const ft::NodeIndex c : n.children) {
    if (tree.node(c).type != ft::NodeType::BasicEvent && !module[c]) {
      return false;
    }
  }
  if (n.type != ft::NodeType::Vote) return true;
  std::vector<ft::NodeIndex> children = n.children;
  std::sort(children.begin(), children.end());
  return std::adjacent_find(children.begin(), children.end()) ==
         children.end();
}

/// Calls `visit(gate)` for `root` and every gate below it that `descend`
/// admits, children before parents, skipping gates `seen` already holds
/// (and marking the ones it reaches in it).
template <typename Descend, typename Visit>
void post_order(const ft::FaultTree& tree, ft::NodeIndex root,
                std::vector<bool>& seen, Descend descend, Visit visit) {
  struct Frame {
    ft::NodeIndex gate;
    std::size_t next_child = 0;
  };
  if (seen[root]) return;
  seen[root] = true;
  std::vector<Frame> stack{{root}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    const ft::Node& n = tree.node(f.gate);
    if (f.next_child < n.children.size()) {
      const ft::NodeIndex c = n.children[f.next_child++];
      if (seen[c] || tree.node(c).type == ft::NodeType::BasicEvent) continue;
      seen[c] = true;
      if (descend(c)) stack.push_back({c});  // invalidates `f`
      continue;
    }
    visit(f.gate);
    stack.pop_back();
  }
}

constexpr auto kAll = [](ft::NodeIndex) { return true; };

/// Copies frontier module `gate` into a kernel: gates down to events and
/// to the `pure` sub-modules, each of which becomes one placeholder event
/// named after its gate and has its gates appended to `collapsed`,
/// children first. `map` (original node -> kernel node) and `seen` are
/// shared by every extraction of one plan: frontier modules are disjoint.
std::shared_ptr<Kernel> extract_kernel(const ft::FaultTree& tree,
                                       ft::NodeIndex gate,
                                       const std::vector<bool>& pure,
                                       std::vector<ft::NodeIndex>& map,
                                       std::vector<bool>& seen,
                                       std::vector<ft::NodeIndex>& collapsed) {
  auto kernel = std::make_shared<Kernel>();
  ft::FaultTree& out = kernel->tree;
  struct Frame {
    ft::NodeIndex node;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack{{gate}};
  while (!stack.empty()) {
    Frame& f = stack.back();
    const ft::Node& n = tree.node(f.node);
    if (map[f.node] != ft::kNoIndex) {
      stack.pop_back();
      continue;
    }
    const bool leaf = n.type == ft::NodeType::BasicEvent ||
                      (f.node != gate && pure[f.node]);
    if (!leaf && f.next_child < n.children.size()) {
      stack.push_back({n.children[f.next_child++]});
      continue;
    }
    if (n.type == ft::NodeType::BasicEvent) {
      map[f.node] = out.add_basic_event(n.name, n.enabled ? n.probability : 0.0);
      kernel->source.push_back(f.node);
    } else if (leaf) {
      // Priced by price(); 1 until then.
      map[f.node] = out.add_basic_event(n.name, 1.0);
      kernel->source.push_back(f.node);
      post_order(tree, f.node, seen, kAll,
                 [&](ft::NodeIndex g) { collapsed.push_back(g); });
    } else {
      std::vector<ft::NodeIndex> children;
      children.reserve(n.children.size());
      for (const ft::NodeIndex c : n.children) children.push_back(map[c]);
      map[f.node] =
          n.type == ft::NodeType::Vote
              ? out.add_vote_gate(n.name, n.k, std::move(children))
              : out.add_gate(n.name, n.type, std::move(children));
    }
    stack.pop_back();
  }
  out.set_top(map[gate]);
  return kernel;
}

/// Prices `kernel` under `tree`: each event at its own Step 3 cost and
/// probability; each placeholder at its sub-module's composed optimum
/// from `heads` (the collapsed gates at k = 1), with that optimum's cut
/// and a probability of exp(-W/scale) (0 for an impossible optimum; it
/// may underflow to 0 as well, which only the shrink order sees).
void price(const ft::FaultTree& tree, Kernel& kernel, const Composer& heads,
           double weight_scale) {
  const std::size_t n = kernel.source.size();
  kernel.cost.resize(n);
  kernel.cut.assign(n, {});
  std::vector<ft::EventIndex> events;
  for (ft::EventIndex e = 0; e < n; ++e) {
    const ft::NodeIndex g = kernel.source[e];
    const ft::Node& node = tree.node(g);
    double p = 0.0;
    if (node.type == ft::NodeType::BasicEvent) {
      kernel.cost[e] = event_cost(tree, node.event_index, weight_scale);
      p = tree.event_probability(node.event_index);
    } else {
      kernel.cost[e] = heads.cost(g, 0);
      events.clear();
      heads.append_cut(g, 0, events);
      kernel.cut[e] = ft::CutSet(events);
      if (kernel.cost[e].impossible == 0) {
        p = std::exp(-static_cast<double>(kernel.cost[e].ordinary) /
                     weight_scale);
      }
    }
    kernel.tree.set_event_probability(e, p);
  }
}

/// Whether price() would leave `kernel` as it is under `tree`: its events'
/// probabilities and its placeholders' optima (cost and cut) are `tree`'s.
bool priced(const ft::FaultTree& tree, const Kernel& kernel,
            const Composer& heads, std::vector<ft::EventIndex>& scratch) {
  for (ft::EventIndex e = 0; e < kernel.source.size(); ++e) {
    const ft::NodeIndex g = kernel.source[e];
    const ft::Node& node = tree.node(g);
    if (node.type == ft::NodeType::BasicEvent) {
      if (tree.event_probability(node.event_index) !=
          kernel.tree.event_probability(e)) {
        return false;
      }
      continue;
    }
    if (heads.cost(g, 0) != kernel.cost[e]) return false;
    scratch.clear();
    heads.append_cut(g, 0, scratch);
    std::sort(scratch.begin(), scratch.end());
    scratch.erase(std::unique(scratch.begin(), scratch.end()), scratch.end());
    if (scratch != kernel.cut[e].events()) return false;
  }
  return true;
}

}  // namespace

ScaledCutCost event_cost(const ft::FaultTree& tree, ft::EventIndex e,
                         double weight_scale) {
  const double p = tree.event_probability(e);
  if (p <= 0.0) return {0, 1};
  return {static_cast<Weight>(std::llround(-std::log(p) * weight_scale)), 0};
}

StratifiedPlan plan_strata(const ft::FaultTree& tree, double weight_scale) {
  StratifiedPlan plan;
  const std::size_t n = tree.num_nodes();
  const ft::NodeIndex top = tree.top();
  if (tree.node(top).type == ft::NodeType::BasicEvent) return plan;
  std::vector<bool> module(n, false);
  for (const analysis::ModuleInfo& m : analysis::find_modules(tree)) {
    module[m.gate] = true;
  }
  // A pure gate is a closed-form module whose gates below are all pure:
  // its whole sub-module composes.
  std::vector<bool> pure(n, false), seen(n, false);
  post_order(tree, top, seen, kAll, [&](ft::NodeIndex g) {
    if (!module[g] || !closed_form(tree, module, g)) return;
    bool all = true;
    for (const ft::NodeIndex c : tree.node(g).children) {
      all = all && (tree.node(c).type == ft::NodeType::BasicEvent || pure[c]);
    }
    pure[g] = all;
  });

  // Down from a closed-form top, children before parents in `closed`; its
  // first gates that are not closed-form are the frontier modules. A
  // module is reached once; `seen` only skips a child an AND/OR gate
  // repeats. A frontier top is the one frontier module.
  std::vector<ft::NodeIndex> frontier;
  std::fill(seen.begin(), seen.end(), false);
  if (closed_form(tree, module, top)) {
    post_order(
        tree, top, seen,
        [&](ft::NodeIndex c) {
          if (closed_form(tree, module, c)) return true;
          frontier.push_back(c);
          return false;
        },
        [&](ft::NodeIndex g) { plan.closed.push_back(g); });
  } else {
    frontier.push_back(top);
  }

  std::vector<ft::NodeIndex> map(n, ft::kNoIndex);
  std::fill(seen.begin(), seen.end(), false);
  std::vector<std::shared_ptr<Kernel>> kernels;
  for (const ft::NodeIndex g : frontier) {
    kernels.push_back(
        extract_kernel(tree, g, pure, map, seen, plan.collapsed));
  }
  // A frontier top with nothing to collapse is the tree's own instance.
  if (plan.closed.empty() && plan.collapsed.empty()) return {};
  plan.applicable = true;
  if (frontier.empty()) return plan;

  Composer heads(tree, plan, {}, 1, weight_scale);
  heads.evaluate(plan.collapsed, nullptr);
  for (std::size_t j = 0; j < frontier.size(); ++j) {
    price(tree, *kernels[j], heads, weight_scale);
    kernels[j]->tree.validate();
    plan.strata.push_back({frontier[j], std::move(kernels[j]), nullptr});
  }
  return plan;
}

void reprice_kernels(const ft::FaultTree& tree, StratifiedPlan& plan,
                     double weight_scale) {
  if (plan.strata.empty()) return;
  Composer heads(tree, plan, {}, 1, weight_scale);
  heads.evaluate(plan.collapsed, nullptr);
  std::vector<ft::EventIndex> scratch;
  for (StratifiedStratum& s : plan.strata) {
    if (priced(tree, *s.kernel, heads, scratch)) continue;
    auto kernel = std::make_shared<Kernel>(*s.kernel);
    price(tree, *kernel, heads, weight_scale);
    s.kernel = std::move(kernel);
  }
}

ScaledCutCost scaled_cut_cost(const ft::FaultTree& tree,
                              std::span<const ft::EventIndex> events,
                              double weight_scale) {
  ScaledCutCost cost;
  for (const ft::EventIndex e : events) {
    cost = cost + event_cost(tree, e, weight_scale);
  }
  return cost;
}

namespace {

/// A candidate list entry before selection: `base` is an entry of the
/// list being extended, `pick` the child entry it adds.
struct Candidate {
  ScaledCutCost cost;
  std::uint32_t base = kNone;
  std::uint32_t pick = 0;
  std::uint32_t part = kNone;  ///< Already built (a kept entry).
};

/// Keeps the k cheapest candidates in a deterministic order: cost, then
/// kept entries before new ones, then position.
void keep_cheapest(std::vector<Candidate>& cands, std::size_t k) {
  const auto less = [](const Candidate& a, const Candidate& b) {
    const bool a_new = a.part == kNone, b_new = b.part == kNone;
    return std::tie(a.cost.impossible, a.cost.ordinary, a_new, a.base,
                    a.pick) < std::tie(b.cost.impossible, b.cost.ordinary,
                                       b_new, b.base, b.pick);
  };
  const std::size_t keep = std::min(k, cands.size());
  std::partial_sort(cands.begin(), cands.begin() + keep, cands.end(), less);
  cands.resize(keep);
}

}  // namespace

Composer::Composer(const ft::FaultTree& tree, const StratifiedPlan& plan,
                   std::span<const FrontierList> frontier, std::size_t k,
                   double weight_scale)
    : tree_(tree),
      frontier_(frontier),
      k_(k),
      weight_scale_(weight_scale),
      slot_(tree.num_nodes(), kNone),
      last_parent_(tree.num_nodes(), ft::kNoIndex) {
  for (std::size_t j = 0; j < frontier.size(); ++j) {
    const ft::NodeIndex gate = plan.strata[j].gate;
    std::vector<Entry> list(std::min(k, frontier[j].costs.size()));
    for (std::size_t i = 0; i < list.size(); ++i) {
      list[i].cost = frontier[j].costs[i];
    }
    store(gate, list, frontier[j].exact, frontier[j].lower);
    frontier_of_.back() = static_cast<std::uint32_t>(j);
  }
}

bool Composer::evaluate(std::span<const ft::NodeIndex> gates,
                        const util::CancelTokenPtr& cancel) {
  for (std::size_t i = 0; i < gates.size(); ++i) {
    if (cancel && i % 1024 == 0) {
      if (cancel->cancelled()) return false;
      cancel->note_progress();
    }
    evaluate(gates[i]);
  }
  return true;
}

void Composer::evaluate(ft::NodeIndex gate) {
  const ft::Node& n = tree_.node(gate);
  // AND/OR ignore repeated children; a closed-form vote has none.
  children_.clear();
  singles_.clear();
  singles_.reserve(n.children.size());  // spans below point into it
  for (const ft::NodeIndex c : n.children) {
    if (last_parent_[c] == gate) continue;
    last_parent_[c] = gate;
    const ft::Node& cn = tree_.node(c);
    if (cn.type == ft::NodeType::BasicEvent) {
      singles_.push_back({event_cost(tree_, cn.event_index, weight_scale_)});
      children_.push_back({c, {&singles_.back(), 1}, true,
                           singles_.back().cost});
      continue;
    }
    const std::uint32_t s = slot_[c];
    children_.push_back({c, {entries_.data() + begin_[s], size_[s]},
                         exact_[s] != 0, lower_[s]});
  }
  bool exact = true;
  std::vector<ScaledCutCost>& lowers = lowers_;
  lowers.clear();
  for (const ChildList& c : children_) {
    exact = exact && c.exact;
    if (c.live()) lowers.push_back(c.lower);
  }
  const std::size_t need = n.type == ft::NodeType::Or    ? 1
                           : n.type == ft::NodeType::And ? children_.size()
                                                         : n.k;
  if (lowers.size() < need) {
    store(gate, {}, true, {});  // too few children can fire: no cut at all
    return;
  }
  std::nth_element(lowers.begin(), lowers.begin() + (need - 1), lowers.end());
  ScaledCutCost lower;
  for (std::size_t j = 0; j < need; ++j) lower = lower + lowers[j];
  if (k_ == 1) {
    const Entry best = cheapest(static_cast<std::uint32_t>(need));
    store(gate, {&best, best.part == kNone ? 0u : 1u}, exact, lower);
    return;
  }
  std::vector<Entry> list{Entry{}};
  if (n.type == ft::NodeType::And) {
    for (const ChildList& c : children_) list = extend(list, c);
  } else {
    list = choose(static_cast<std::uint32_t>(need));  // OR: 1-of-n
  }
  store(gate, list, exact, lower);
}

/// The optimum alone: the `threshold` cheapest children with a cut, each
/// by its head (a partial selection, linear in the fan-in). No entry (part
/// kNone) when fewer children have one.
Composer::Entry Composer::cheapest(std::uint32_t threshold) {
  picks_.clear();
  for (std::uint32_t c = 0; c < children_.size(); ++c) {
    if (!children_[c].list.empty()) picks_.push_back(c);
  }
  if (picks_.size() < threshold) return {};
  const auto head = [this](std::uint32_t c) {
    const ScaledCutCost& x = children_[c].list.front().cost;
    return std::tuple(x.impossible, x.ordinary, c);
  };
  if (threshold < picks_.size()) {
    std::nth_element(
        picks_.begin(), picks_.begin() + (threshold - 1), picks_.end(),
        [&](std::uint32_t a, std::uint32_t b) { return head(a) < head(b); });
  }
  Entry best;
  for (std::uint32_t i = 0; i < threshold; ++i) {
    const ChildList& c = children_[picks_[i]];
    best.cost = best.cost + c.list.front().cost;
    parts_.push_back({c.node, 0, best.part});
    best.part = static_cast<std::uint32_t>(parts_.size() - 1);
  }
  return best;
}

void Composer::store(ft::NodeIndex node, std::span<const Entry> list,
                     bool exact, ScaledCutCost lower) {
  slot_[node] = static_cast<std::uint32_t>(begin_.size());
  begin_.push_back(static_cast<std::uint32_t>(entries_.size()));
  size_.push_back(static_cast<std::uint32_t>(list.size()));
  exact_.push_back(exact ? 1 : 0);
  // An exact list's head is the optimum itself.
  lower_.push_back(exact && !list.empty() ? list.front().cost : lower);
  frontier_of_.push_back(kNone);
  entries_.insert(entries_.end(), list.begin(), list.end());
}

/// The k cheapest of {a + b : a in `base`, b in child's list}; with
/// `kept`, the result also competes with those already-built entries.
std::vector<Composer::Entry> Composer::extend(const std::vector<Entry>& base,
                                              const ChildList& child,
                                              const std::vector<Entry>& kept) {
  std::vector<Candidate> cands;
  for (const Entry& e : kept) cands.push_back({e.cost, kNone, 0, e.part});
  for (std::uint32_t a = 0; a < base.size(); ++a) {
    for (std::uint32_t b = 0; b < child.list.size(); ++b) {
      cands.push_back({base[a].cost + child.list[b].cost, a, b});
    }
  }
  keep_cheapest(cands, k_);
  std::vector<Entry> out;
  for (const Candidate& x : cands) {
    std::uint32_t part = x.part;
    if (part == kNone) {
      part = static_cast<std::uint32_t>(parts_.size());
      parts_.push_back({child.node, x.pick, base[x.base].part});
    }
    out.push_back({x.cost, part});
  }
  return out;
}

/// k-of-n: chosen[j] holds the k cheapest ways to fire exactly j of the
/// children seen so far, one child at a time (a 0/1 knapsack over j).
std::vector<Composer::Entry> Composer::choose(std::uint32_t threshold) {
  std::vector<std::vector<Entry>> chosen(threshold + 1);
  chosen[0] = {Entry{}};
  for (std::size_t c = 0; c < children_.size(); ++c) {
    const std::size_t top = std::min<std::size_t>(threshold, c + 1);
    for (std::size_t j = top; j >= 1; --j) {
      chosen[j] = extend(chosen[j - 1], children_[c], chosen[j]);
    }
  }
  return chosen[threshold];
}

void Composer::append_cut(ft::NodeIndex gate, std::size_t entry,
                          std::vector<ft::EventIndex>& events) const {
  std::vector<std::pair<ft::NodeIndex, std::uint32_t>> todo{
      {gate, static_cast<std::uint32_t>(entry)}};
  while (!todo.empty()) {
    const auto [id, e] = todo.back();
    todo.pop_back();
    const ft::Node& n = tree_.node(id);
    if (n.type == ft::NodeType::BasicEvent) {
      events.push_back(n.event_index);
      continue;
    }
    const std::uint32_t s = slot_[id];
    if (frontier_of_[s] != kNone) {
      const ft::CutSet& cut = frontier_[frontier_of_[s]].cuts[e];
      events.insert(events.end(), cut.events().begin(), cut.events().end());
      continue;
    }
    for (std::uint32_t p = entries_[begin_[s] + e].part; p != kNone;
         p = parts_[p].prev) {
      todo.push_back({parts_[p].child, parts_[p].entry});
    }
  }
}

Composition Composer::result(ft::NodeIndex gate) const {
  Composition out;
  const std::uint32_t s = slot_[gate];
  out.exact = exact_[s] != 0;
  out.lower = lower_[s];
  std::vector<ft::EventIndex> events;
  for (std::uint32_t e = 0; e < size_[s]; ++e) {
    out.costs.push_back(entries_[begin_[s] + e].cost);
    events.clear();
    append_cut(gate, e, events);
    out.cuts.emplace_back(events);
  }
  return out;
}

Composition compose(const ft::FaultTree& tree, const StratifiedPlan& plan,
                    std::span<const FrontierList> frontier, std::size_t k,
                    double weight_scale, const util::CancelTokenPtr& cancel) {
  if (!plan.applicable || k == 0) return {};
  Composer composer(tree, plan, frontier, k, weight_scale);
  if (!composer.evaluate(plan.closed, cancel)) return {};
  return composer.result(tree.top());
}

FrontierList expand(const ft::FaultTree& tree, const Kernel& kernel,
                    const ft::CutSet& cut) {
  std::vector<ft::EventIndex> events;
  ScaledCutCost cost;
  for (const ft::EventIndex e : cut.events()) {
    cost = cost + kernel.cost[e];
    const ft::Node& n = tree.node(kernel.source[e]);
    if (n.type == ft::NodeType::BasicEvent) {
      events.push_back(n.event_index);
    } else {
      const std::vector<ft::EventIndex>& part = kernel.cut[e].events();
      events.insert(events.end(), part.begin(), part.end());
    }
  }
  FrontierList out;
  out.cuts.emplace_back(std::move(events));
  out.costs.push_back(cost);
  return out;
}

FrontierList expand(const ft::FaultTree& tree, const Kernel& kernel,
                    const ft::CutSet& cut, const Composer& parts,
                    std::size_t k) {
  // One combination per way of picking an entry of each placeholder's
  // list, extended a placeholder at a time and cut back to the k
  // cheapest (ties: earlier picks first).
  struct Combo {
    ScaledCutCost cost;
    std::vector<std::uint32_t> picks;  ///< Per placeholder of the cut.
  };
  std::vector<ft::EventIndex> events;
  std::vector<ft::NodeIndex> placeholders;
  ScaledCutCost own;  // the cut's events; placeholders add list entries
  for (const ft::EventIndex e : cut.events()) {
    const ft::Node& n = tree.node(kernel.source[e]);
    if (n.type == ft::NodeType::BasicEvent) {
      events.push_back(n.event_index);
      own = own + kernel.cost[e];
    } else {
      placeholders.push_back(kernel.source[e]);
    }
  }
  std::vector<Combo> combos{{own, {}}};
  for (const ft::NodeIndex g : placeholders) {
    std::vector<Combo> next;
    for (const Combo& c : combos) {
      for (std::uint32_t i = 0; i < parts.size(g); ++i) {
        Combo x{c.cost + parts.cost(g, i), c.picks};
        x.picks.push_back(i);
        next.push_back(std::move(x));
      }
    }
    const std::size_t keep = std::min(k, next.size());
    std::partial_sort(next.begin(), next.begin() + keep, next.end(),
                      [](const Combo& a, const Combo& b) {
                        return std::tie(a.cost.impossible, a.cost.ordinary,
                                        a.picks) <
                               std::tie(b.cost.impossible, b.cost.ordinary,
                                        b.picks);
                      });
    next.resize(keep);
    combos = std::move(next);
  }
  FrontierList out;
  for (const Combo& c : combos) {
    std::vector<ft::EventIndex> cut_events = events;
    for (std::size_t i = 0; i < placeholders.size(); ++i) {
      parts.append_cut(placeholders[i], c.picks[i], cut_events);
    }
    out.cuts.emplace_back(std::move(cut_events));
    out.costs.push_back(c.cost);
  }
  return out;
}

}  // namespace fta::maxsat
