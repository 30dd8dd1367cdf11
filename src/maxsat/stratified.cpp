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

/// Event `e`'s probability in a kernel whose source node `node` has head
/// cost `cost`: an event's own; a placeholder's exp(-W/scale), or 0 for an
/// impossible optimum (it may underflow to 0 as well, which only the
/// shrink order sees).
double leaf_probability(const ft::FaultTree& tree, ft::NodeIndex node,
                        const ScaledCutCost& cost, double weight_scale) {
  const ft::Node& n = tree.node(node);
  if (n.type == ft::NodeType::BasicEvent) {
    return tree.event_probability(n.event_index);
  }
  if (cost.impossible > 0) return 0.0;
  return std::exp(-static_cast<double>(cost.ordinary) / weight_scale);
}

/// Gate `g`'s children into `nodes` and their heads, `head_of(child)`,
/// into `kids`: an AND's repeated child once.
template <typename HeadOf>
void gather(const ft::FaultTree& tree, const HeadTable& t, ft::NodeIndex g,
            HeadOf head_of, std::vector<Head>& kids,
            std::vector<ft::NodeIndex>& nodes) {
  kids.clear();
  nodes.clear();
  for (const ft::NodeIndex c : tree.node(g).children) {
    if (t.repeats[g] &&
        std::find(nodes.begin(), nodes.end(), c) != nodes.end()) {
      continue;
    }
    nodes.push_back(c);
    kids.push_back(head_of(c));
  }
}

/// Recomputes Gates' heads in a plan's table, with its own scratch.
class Recomposer {
 public:
  Recomposer(const ft::FaultTree& tree, HeadTable& table)
      : tree_(tree), t_(table) {}

  /// Gate `g`'s head from its children's: writes its cost and picks, and
  /// says whether the cost moved.
  bool operator()(ft::NodeIndex g) {
    const ft::Node& n = tree_.node(g);
    gather(
        tree_, t_, g,
        [this](ft::NodeIndex c) { return Head{t_.cost[c], t_.cost[c]}; },
        kids_, nodes_);
    const Head head = cheapest(n.type, n.k, kids_, picks_);
    if (n.type != ft::NodeType::And) {
      for (std::size_t i = 0; i < picks_.size(); ++i) {
        t_.picks[t_.slot[g] + i] = nodes_[picks_[i]];
      }
    }
    const bool moved = head.cost != t_.cost[g];
    t_.cost[g] = head.cost;
    return moved;
  }

 private:
  const ft::FaultTree& tree_;
  HeadTable& t_;
  std::vector<Head> kids_;
  std::vector<ft::NodeIndex> nodes_;
  std::vector<std::uint32_t> picks_;
};

/// Builds `plan`'s head table under `tree`, the frontier gates in
/// `frontier` and the kernels in `kernels` (parallel to it), and prices
/// each kernel's leaves from it.
void build_heads(const ft::FaultTree& tree, StratifiedPlan& plan,
                 const std::vector<ft::NodeIndex>& frontier,
                 std::vector<std::shared_ptr<Kernel>>& kernels,
                 double weight_scale) {
  const std::size_t n = tree.num_nodes();
  HeadTable& t = plan.heads;
  t.cost.assign(n, {});
  t.up.assign(n, {});
  t.role.assign(n, HeadRole::None);
  t.slot.assign(n, kNone);
  t.repeats.assign(n, false);
  for (ft::EventIndex e = 0; e < tree.num_events(); ++e) {
    t.cost[tree.event_node(e)] = event_cost(tree, e, weight_scale);
  }
  for (std::size_t j = 0; j < frontier.size(); ++j) {
    t.role[frontier[j]] = HeadRole::Frontier;
    t.slot[frontier[j]] = static_cast<std::uint32_t>(j);
  }
  // A closed gate with a frontier module below it is on the spine.
  for (const ft::NodeIndex g : plan.closed) {
    t.role[g] = HeadRole::Gate;
    for (const ft::NodeIndex c : tree.node(g).children) {
      if (t.role[c] == HeadRole::Frontier || t.role[c] == HeadRole::Spine) {
        t.role[g] = HeadRole::Spine;
      }
    }
    if (t.role[g] == HeadRole::Spine) {
      t.slot[g] = static_cast<std::uint32_t>(plan.spine.size());
      plan.spine.push_back(g);
    }
  }
  for (const ft::NodeIndex g : plan.collapsed) t.role[g] = HeadRole::Gate;
  std::vector<ft::NodeIndex> sorted;
  for (const auto* gates : {&plan.collapsed, &plan.closed}) {
    for (const ft::NodeIndex g : *gates) {
      const ft::Node& node = tree.node(g);
      for (const ft::NodeIndex c : node.children) t.up[c] = {g, kNone};
      if (node.type == ft::NodeType::And) {
        sorted = node.children;
        std::sort(sorted.begin(), sorted.end());
        t.repeats[g] =
            std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
      } else if (t.role[g] == HeadRole::Gate) {
        t.slot[g] = static_cast<std::uint32_t>(t.picks.size());
        t.picks.resize(t.picks.size() +
                       (node.type == ft::NodeType::Or ? 1 : node.k));
      }
    }
  }
  Recomposer recompose(tree, t);
  for (const auto* gates : {&plan.collapsed, &plan.closed}) {
    for (const ft::NodeIndex g : *gates) {
      if (t.role[g] == HeadRole::Gate) recompose(g);
    }
  }
  for (std::size_t j = 0; j < kernels.size(); ++j) {
    Kernel& kernel = *kernels[j];
    kernel.cost.resize(kernel.source.size());
    for (ft::EventIndex e = 0; e < kernel.source.size(); ++e) {
      const ft::NodeIndex node = kernel.source[e];
      t.up[node] = {static_cast<std::uint32_t>(j), e};
      kernel.cost[e] = t.cost[node];
      kernel.tree.set_event_probability(
          e, leaf_probability(tree, node, t.cost[node], weight_scale));
    }
  }
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
  build_heads(tree, plan, frontier, kernels, weight_scale);
  for (std::size_t j = 0; j < frontier.size(); ++j) {
    kernels[j]->tree.validate();
    plan.strata.push_back({frontier[j], std::move(kernels[j]), nullptr});
  }
  return plan;
}

std::size_t reprice(const ft::FaultTree& tree, StratifiedPlan& plan,
                    std::span<const ft::EventIndex> events,
                    double weight_scale, std::vector<bool>& moved) {
  HeadTable& t = plan.heads;
  Recomposer recompose(tree, t);
  std::size_t recomposed = 0;
  for (const ft::EventIndex e : events) {
    ft::NodeIndex node = tree.event_node(e);
    const ScaledCutCost cost = event_cost(tree, e, weight_scale);
    bool changed = cost != t.cost[node];
    t.cost[node] = cost;
    for (;;) {
      const HeadTable::Up up = t.up[node];
      if (up.kernel_event != kNone) {
        // The plan's exclusive owner patches it (see
        // core::MpmcsPipeline::apply_delta).
        auto& kernel = const_cast<Kernel&>(*plan.strata[up.index].kernel);
        kernel.cost[up.kernel_event] = t.cost[node];
        kernel.tree.set_event_probability(
            up.kernel_event,
            leaf_probability(tree, node, t.cost[node], weight_scale));
        if (changed) moved[up.index] = true;
        break;
      }
      if (!changed || up.index == kNone ||
          t.role[up.index] != HeadRole::Gate) {
        break;
      }
      node = up.index;
      ++recomposed;
      changed = recompose(node);
    }
  }
  return recomposed;
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

Head cheapest(ft::NodeType type, std::uint32_t k, std::span<const Head> kids,
              std::vector<std::uint32_t>& picks) {
  const std::size_t need = type == ft::NodeType::Or    ? 1
                           : type == ft::NodeType::And ? kids.size()
                                                       : k;
  // A child may fire when it has a cut or its search is undecided.
  Head head{{}, {}, false, true};
  picks.clear();
  for (std::uint32_t c = 0; c < kids.size(); ++c) {
    head.exact = head.exact && kids[c].exact;
    if (kids[c].cut || !kids[c].exact) picks.push_back(c);
  }
  if (picks.size() < need) {
    picks.clear();
    return {{}, {}, false, true};  // too few children can fire: no cut at all
  }
  if (!head.exact) {
    // The `need` smallest lower bounds of the children that may fire.
    std::nth_element(picks.begin(), picks.begin() + (need - 1), picks.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                       return kids[a].lower < kids[b].lower;
                     });
    for (std::size_t i = 0; i < need; ++i) {
      head.lower = head.lower + kids[picks[i]].lower;
    }
    picks.erase(std::remove_if(picks.begin(), picks.end(),
                               [&](std::uint32_t c) { return !kids[c].cut; }),
                picks.end());
    if (picks.size() < need) {
      picks.clear();
      return head;
    }
  }
  // The `need` cheapest by (cost, position): a partial selection, linear
  // in the fan-in.
  const auto less = [&](std::uint32_t a, std::uint32_t b) {
    const ScaledCutCost& x = kids[a].cost;
    const ScaledCutCost& y = kids[b].cost;
    return std::tie(x.impossible, x.ordinary, a) <
           std::tie(y.impossible, y.ordinary, b);
  };
  if (need == 1) {
    picks.front() = *std::min_element(picks.begin(), picks.end(), less);
  } else if (need < picks.size()) {
    std::nth_element(picks.begin(), picks.begin() + (need - 1), picks.end(),
                     less);
  }
  picks.resize(need);
  head.cut = true;
  for (const std::uint32_t c : picks) head.cost = head.cost + kids[c].cost;
  if (head.exact) head.lower = head.cost;
  return head;
}

void Composer::evaluate(ft::NodeIndex gate) {
  const ft::Node& n = tree_.node(gate);
  // AND/OR ignore repeated children; a closed-form vote has none.
  children_.clear();
  heads_.clear();
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
    } else {
      const std::uint32_t s = slot_[c];
      children_.push_back({c, {entries_.data() + begin_[s], size_[s]},
                           exact_[s] != 0, lower_[s]});
    }
    const ChildList& child = children_.back();
    heads_.push_back({child.list.empty() ? ScaledCutCost{}
                                         : child.list.front().cost,
                      child.lower, !child.list.empty(), child.exact});
  }
  const Head head = cheapest(n.type, n.k, heads_, picks_);
  if (k_ == 1 || !head.cut) {
    // The optimum alone: the head's picks, each by its own head.
    Entry best{head.cost};
    for (const std::uint32_t c : picks_) {
      parts_.push_back({children_[c].node, 0, best.part});
      best.part = static_cast<std::uint32_t>(parts_.size() - 1);
    }
    store(gate, {&best, head.cut ? 1u : 0u}, head.exact, head.lower);
    return;
  }
  std::vector<Entry> list{Entry{}};
  if (n.type == ft::NodeType::And) {
    for (const ChildList& c : children_) list = extend(list, c);
  } else {
    list = choose(n.type == ft::NodeType::Or ? 1 : n.k);  // OR: 1-of-n
  }
  store(gate, list, head.exact, head.lower);
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

Composition compose_head(const ft::FaultTree& tree, const StratifiedPlan& plan,
                         std::span<const FrontierHead> frontier) {
  const HeadTable& t = plan.heads;
  // The spine's heads, children first; spine gate i's picks are
  // picked[first[i], first[i + 1]).
  std::vector<Head> spine(plan.spine.size());
  std::vector<std::uint32_t> first{0};
  std::vector<ft::NodeIndex> picked;
  const auto head_of = [&](ft::NodeIndex c) -> Head {
    switch (t.role[c]) {
      case HeadRole::Spine: return spine[t.slot[c]];
      case HeadRole::Frontier: return frontier[t.slot[c]].head;
      default: return {t.cost[c], t.cost[c]};
    }
  };
  std::vector<Head> kids;
  std::vector<ft::NodeIndex> nodes;
  std::vector<std::uint32_t> picks;
  for (std::size_t i = 0; i < plan.spine.size(); ++i) {
    const ft::Node& n = tree.node(plan.spine[i]);
    gather(tree, t, plan.spine[i], head_of, kids, nodes);
    spine[i] = cheapest(n.type, n.k, kids, picks);
    for (const std::uint32_t p : picks) picked.push_back(nodes[p]);
    first.push_back(static_cast<std::uint32_t>(picked.size()));
  }
  const Head head = head_of(tree.top());
  Composition out;
  out.exact = head.exact;
  out.lower = head.lower;
  if (!head.cut) return out;
  // Down the picks: a table Gate's, a spine gate's, or a frontier
  // module's kernel cut, whose leaves are events and collapsed roots.
  std::vector<ft::EventIndex> events;
  std::vector<ft::NodeIndex> todo{tree.top()};
  while (!todo.empty()) {
    const ft::NodeIndex g = todo.back();
    todo.pop_back();
    const ft::Node& n = tree.node(g);
    if (n.type == ft::NodeType::BasicEvent) {
      events.push_back(n.event_index);
    } else if (t.role[g] == HeadRole::Spine) {
      todo.insert(todo.end(), picked.begin() + first[t.slot[g]],
                  picked.begin() + first[t.slot[g] + 1]);
    } else if (t.role[g] == HeadRole::Frontier) {
      const Kernel& kernel = *plan.strata[t.slot[g]].kernel;
      for (const ft::EventIndex e : frontier[t.slot[g]].kernel_cut.events()) {
        todo.push_back(kernel.source[e]);
      }
    } else if (n.type == ft::NodeType::And) {
      todo.insert(todo.end(), n.children.begin(), n.children.end());
    } else {
      const auto at = t.picks.begin() + t.slot[g];
      todo.insert(todo.end(), at,
                  at + (n.type == ft::NodeType::Or ? 1 : n.k));
    }
  }
  out.cuts.emplace_back(std::move(events));
  out.costs.push_back(head.cost);
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
