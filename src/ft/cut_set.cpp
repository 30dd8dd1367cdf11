#include "ft/cut_set.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "logic/eval.hpp"

namespace fta::ft {

CutSet::CutSet(std::vector<EventIndex> events) : events_(std::move(events)) {
  std::sort(events_.begin(), events_.end());
  events_.erase(std::unique(events_.begin(), events_.end()), events_.end());
}

bool CutSet::contains(EventIndex e) const noexcept {
  return std::binary_search(events_.begin(), events_.end(), e);
}

bool CutSet::subset_of(const CutSet& other) const noexcept {
  return std::includes(other.events_.begin(), other.events_.end(),
                       events_.begin(), events_.end());
}

double CutSet::probability(const FaultTree& tree) const {
  double p = 1.0;
  for (EventIndex e : events_) p *= tree.event_probability(e);
  return p;
}

double CutSet::log_cost(const FaultTree& tree) const {
  double w = 0.0;
  for (EventIndex e : events_) {
    const double p = tree.event_probability(e);
    if (p <= 0.0) return std::numeric_limits<double>::infinity();
    w += -std::log(p);
  }
  return w;
}

std::string CutSet::to_string(const FaultTree& tree) const {
  std::string out = "{";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    if (i) out += ", ";
    out += tree.event(events_[i]).name;
  }
  return out + "}";
}

std::vector<std::string> CutSet::names(const FaultTree& tree) const {
  std::vector<std::string> out;
  out.reserve(events_.size());
  for (const EventIndex e : events_) out.push_back(tree.event(e).name);
  return out;
}

namespace {

/// Evaluates the top event with exactly the given events set to true.
bool top_occurs(const FaultTree& tree, const std::vector<bool>& occurs) {
  logic::FormulaStore store;
  const logic::NodeId f = tree.to_formula(store);
  return logic::eval(store, f, occurs);
}

}  // namespace

bool is_cut_set(const FaultTree& tree, const CutSet& cs) {
  std::vector<bool> occurs(tree.num_events(), false);
  for (EventIndex e : cs.events()) occurs[e] = true;
  return top_occurs(tree, occurs);
}

bool is_minimal_cut_set(const FaultTree& tree, const CutSet& cs) {
  if (!is_cut_set(tree, cs)) return false;
  std::vector<bool> occurs(tree.num_events(), false);
  for (EventIndex e : cs.events()) occurs[e] = true;
  logic::FormulaStore store;
  const logic::NodeId f = tree.to_formula(store);
  for (EventIndex e : cs.events()) {
    occurs[e] = false;
    if (logic::eval(store, f, occurs)) return false;  // still a cut: not minimal
    occurs[e] = true;
  }
  return true;
}

CutSet shrink_to_minimal(const FaultTree& tree, CutSet cs) {
  return ShrinkContext(tree).shrink(tree, std::move(cs));
}

ShrinkContext::ShrinkContext(const FaultTree& tree)
    : root_(tree.to_formula(store_)), num_events_(tree.num_events()) {}

CutSet ShrinkContext::shrink(const FaultTree& tree, CutSet cs) const {
  std::vector<bool> occurs(num_events_, false);
  for (EventIndex e : cs.events()) occurs[e] = true;
  logic::IncrementalEvaluator eval(store_, root_, std::move(occurs));

  // Try to drop events in ascending probability order: losing a low-
  // probability factor raises the joint probability the most.
  std::vector<EventIndex> order = cs.events();
  std::sort(order.begin(), order.end(), [&](EventIndex a, EventIndex b) {
    const double pa = tree.event_probability(a);
    const double pb = tree.event_probability(b);
    return pa != pb ? pa < pb : a < b;
  });

  std::vector<EventIndex> kept = cs.events();
  for (EventIndex e : order) {
    eval.set(e, false);
    if (eval.value()) {
      kept.erase(std::remove(kept.begin(), kept.end(), e), kept.end());
    } else {
      eval.set(e, true);  // e is necessary
    }
  }
  return CutSet(std::move(kept));
}

std::vector<CutSet> minimize_family(std::vector<CutSet> family) {
  // Sort by size so any absorber of a set appears before it.
  std::sort(family.begin(), family.end(),
            [](const CutSet& a, const CutSet& b) {
              return a.size() != b.size() ? a.size() < b.size() : a < b;
            });
  family.erase(std::unique(family.begin(), family.end()), family.end());
  std::vector<CutSet> out;
  for (auto& cs : family) {
    bool absorbed = false;
    for (const auto& kept : out) {
      if (kept.subset_of(cs)) {
        absorbed = true;
        break;
      }
    }
    if (!absorbed) out.push_back(std::move(cs));
  }
  return out;
}

std::ptrdiff_t argmax_probability(const FaultTree& tree,
                                  const std::vector<CutSet>& family) {
  std::ptrdiff_t best = -1;
  double best_p = -1.0;
  for (std::size_t i = 0; i < family.size(); ++i) {
    const double p = family[i].probability(tree);
    const bool better =
        p > best_p ||
        (p == best_p && best >= 0 &&
         (family[i].size() < family[static_cast<std::size_t>(best)].size() ||
          (family[i].size() == family[static_cast<std::size_t>(best)].size() &&
           family[i] < family[static_cast<std::size_t>(best)])));
    if (better) {
      best = static_cast<std::ptrdiff_t>(i);
      best_p = p;
    }
  }
  return best;
}

}  // namespace fta::ft
