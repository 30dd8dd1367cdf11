#include "maxsat/stratified.hpp"

#include <algorithm>
#include <cmath>
#include <tuple>

namespace fta::maxsat {

namespace {

constexpr std::uint32_t kNone = UINT32_MAX;

ScaledCutCost event_cost(const ft::FaultTree& tree, ft::EventIndex e,
                         double weight_scale) {
  const double p = tree.event_probability(e);
  if (p <= 0.0) return {0, 1};
  return {static_cast<Weight>(std::llround(-std::log(p) * weight_scale)), 0};
}

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

}  // namespace

StratifiedPlan plan_strata(const ft::FaultTree& tree) {
  StratifiedPlan plan;
  std::vector<bool> module(tree.num_nodes(), false);
  for (const analysis::ModuleInfo& m : analysis::find_modules(tree)) {
    module[m.gate] = true;
  }
  const ft::NodeIndex top = tree.top();
  if (!module[top] || !closed_form(tree, module, top)) return plan;

  // Down from the top, children before parents in `closed`. A module is
  // reached once; `seen` only skips a child an AND/OR gate repeats.
  std::vector<bool> seen(tree.num_nodes(), false);
  struct Frame {
    ft::NodeIndex gate;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack{{top}};
  seen[top] = true;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const ft::Node& n = tree.node(f.gate);
    if (f.next_child < n.children.size()) {
      const ft::NodeIndex c = n.children[f.next_child++];
      if (seen[c] || tree.node(c).type == ft::NodeType::BasicEvent) continue;
      seen[c] = true;
      if (closed_form(tree, module, c)) {
        stack.push_back({c});  // invalidates `f`
      } else {
        plan.strata.push_back(
            {c,
             std::make_shared<const analysis::ExtractedModule>(
                 analysis::extract_module(tree, c)),
             nullptr});
      }
      continue;
    }
    plan.closed.push_back(f.gate);
    stack.pop_back();
  }
  plan.applicable = true;
  return plan;
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

/// One entry of a node's k-best list. Its cut is the union, over the
/// chain of parts starting at `part`, of each part's child's entry.
struct Entry {
  ScaledCutCost cost;
  std::uint32_t part = kNone;
};

struct Part {
  ft::NodeIndex child = ft::kNoIndex;
  std::uint32_t entry = 0;    ///< Index into the child's list.
  std::uint32_t prev = kNone;  ///< Next part of the same entry.
};

/// A closed-form gate's child as the composition sees it.
struct ChildList {
  ft::NodeIndex node = ft::kNoIndex;
  std::span<const Entry> list;
  bool exact = true;
  ScaledCutCost lower;

  /// The child may fire: it has a cut, or its search is undecided.
  bool live() const noexcept { return !list.empty() || !exact; }
};

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

class Composer {
 public:
  Composer(const ft::FaultTree& tree, const StratifiedPlan& plan,
           std::span<const FrontierList> frontier, std::size_t k,
           double weight_scale)
      : tree_(tree),
        plan_(plan),
        frontier_(frontier),
        k_(k),
        weight_scale_(weight_scale),
        slot_(tree.num_nodes(), kNone),
        last_parent_(tree.num_nodes(), ft::kNoIndex) {
    const std::size_t slots = plan.closed.size() + frontier.size();
    begin_.resize(slots);
    size_.resize(slots);
    exact_.resize(slots);
    lower_.resize(slots);
    for (std::size_t i = 0; i < plan.closed.size(); ++i) {
      slot_[plan.closed[i]] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t j = 0; j < frontier.size(); ++j) {
      const auto s = static_cast<std::uint32_t>(plan.closed.size() + j);
      slot_[plan.strata[j].gate] = s;
      std::vector<Entry> list(std::min(k, frontier[j].costs.size()));
      for (std::size_t i = 0; i < list.size(); ++i) {
        list[i].cost = frontier[j].costs[i];
      }
      store(s, list, frontier[j].exact, frontier[j].lower);
    }
  }

  /// Evaluates closed-form gate `i` of the plan (its children done).
  void evaluate(std::size_t i) {
    const ft::NodeIndex gate = plan_.closed[i];
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
    std::sort(lowers.begin(), lowers.end());
    const std::size_t need = n.type == ft::NodeType::Or    ? 1
                             : n.type == ft::NodeType::And ? children_.size()
                                                           : n.k;
    const auto s = static_cast<std::uint32_t>(i);
    if (lowers.size() < need) {
      store(s, {}, true, {});  // too few children can fire: no cut at all
      return;
    }
    ScaledCutCost lower;
    for (std::size_t j = 0; j < need; ++j) lower = lower + lowers[j];
    std::vector<Entry> list{Entry{}};
    if (n.type == ft::NodeType::And) {
      for (const ChildList& c : children_) list = extend(list, c);
    } else {
      list = choose(static_cast<std::uint32_t>(need));  // OR: 1-of-n
    }
    store(s, list, exact, lower);
  }

  Composition finish() const {
    Composition out;
    const std::uint32_t top = slot_[tree_.top()];
    out.exact = exact_[top] != 0;
    out.lower = lower_[top];
    for (std::uint32_t e = 0; e < size_[top]; ++e) {
      out.costs.push_back(entries_[begin_[top] + e].cost);
      out.cuts.push_back(cut_of(tree_.top(), e));
    }
    return out;
  }

 private:
  void store(std::uint32_t s, const std::vector<Entry>& list, bool exact,
             ScaledCutCost lower) {
    begin_[s] = static_cast<std::uint32_t>(entries_.size());
    size_[s] = static_cast<std::uint32_t>(list.size());
    exact_[s] = exact ? 1 : 0;
    // An exact list's head is the optimum itself.
    lower_[s] = exact && !list.empty() ? list.front().cost : lower;
    entries_.insert(entries_.end(), list.begin(), list.end());
  }

  /// The k cheapest of {a + b : a in `base`, b in child's list}; with
  /// `kept`, the result also competes with those already-built entries.
  std::vector<Entry> extend(const std::vector<Entry>& base,
                            const ChildList& child,
                            const std::vector<Entry>& kept = {}) {
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
  std::vector<Entry> choose(std::uint32_t threshold) {
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

  ft::CutSet cut_of(ft::NodeIndex node, std::uint32_t entry) const {
    std::vector<ft::EventIndex> events;
    std::vector<std::pair<ft::NodeIndex, std::uint32_t>> todo{{node, entry}};
    while (!todo.empty()) {
      const auto [id, e] = todo.back();
      todo.pop_back();
      const ft::Node& n = tree_.node(id);
      if (n.type == ft::NodeType::BasicEvent) {
        events.push_back(n.event_index);
        continue;
      }
      const std::uint32_t s = slot_[id];
      if (s >= plan_.closed.size()) {
        const ft::CutSet& cut = frontier_[s - plan_.closed.size()].cuts[e];
        events.insert(events.end(), cut.events().begin(), cut.events().end());
        continue;
      }
      for (std::uint32_t p = entries_[begin_[s] + e].part; p != kNone;
           p = parts_[p].prev) {
        todo.push_back({parts_[p].child, parts_[p].entry});
      }
    }
    return ft::CutSet(std::move(events));
  }

  const ft::FaultTree& tree_;
  const StratifiedPlan& plan_;
  std::span<const FrontierList> frontier_;
  std::size_t k_;
  double weight_scale_;
  std::vector<std::uint32_t> slot_;  ///< Node -> closed gate or frontier.
  std::vector<std::uint32_t> begin_, size_;  ///< Per slot, into entries_.
  std::vector<std::uint8_t> exact_;
  std::vector<ScaledCutCost> lower_;
  std::vector<Entry> entries_;
  std::vector<Part> parts_;
  /// The gate that last listed a node as its child: skips repeats.
  std::vector<ft::NodeIndex> last_parent_;
  std::vector<ChildList> children_;  ///< Scratch for evaluate().
  std::vector<Entry> singles_;       ///< Scratch: event children's lists.
  std::vector<ScaledCutCost> lowers_;  ///< Scratch for evaluate().
};

}  // namespace

Composition compose(const ft::FaultTree& tree, const StratifiedPlan& plan,
                    std::span<const FrontierList> frontier, std::size_t k,
                    double weight_scale, const util::CancelTokenPtr& cancel) {
  if (!plan.applicable || k == 0) return {};
  Composer composer(tree, plan, frontier, k, weight_scale);
  for (std::size_t i = 0; i < plan.closed.size(); ++i) {
    if (cancel && i % 1024 == 0) {
      if (cancel->cancelled()) return {};
      cancel->note_progress();
    }
    composer.evaluate(i);
  }
  return composer.finish();
}

}  // namespace fta::maxsat
