#include "bdd/zbdd.hpp"

#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace fta::bdd {

namespace {

constexpr ZRef kMaxNodes = 1u << 22;

constexpr std::uint64_t node_key(Level level, ZRef lo, ZRef hi) {
  return (static_cast<std::uint64_t>(level) << 44) |
         (static_cast<std::uint64_t>(lo) << 22) | hi;
}

constexpr std::uint64_t pair_key(ZRef a, ZRef b) {
  return (static_cast<std::uint64_t>(a) << 22) | b;
}

}  // namespace

ZbddManager::ZbddManager(std::uint32_t num_levels) : num_levels_(num_levels) {
  nodes_.push_back(ZNode{num_levels_, kEmptyFamily, kEmptyFamily});  // 0
  nodes_.push_back(ZNode{num_levels_, kUnitFamily, kUnitFamily});    // 1
}

ZRef ZbddManager::make_node(Level level, ZRef lo, ZRef hi) {
  if (hi == kEmptyFamily) return lo;  // zero-suppression rule
  const std::uint64_t key = node_key(level, lo, hi);
  auto it = unique_.find(key);
  if (it != unique_.end()) return it->second;
  if (nodes_.size() >= kMaxNodes) {
    throw std::runtime_error("ZbddManager: node limit exceeded");
  }
  nodes_.push_back(ZNode{level, lo, hi});
  const auto ref = static_cast<ZRef>(nodes_.size() - 1);
  unique_.emplace(key, ref);
  return ref;
}

ZRef ZbddManager::singleton(Level level) {
  return make_node(level, kEmptyFamily, kUnitFamily);
}

ZRef ZbddManager::unite(ZRef a, ZRef b) {
  if (a == kEmptyFamily || a == b) return b;
  if (b == kEmptyFamily) return a;
  if (a > b) std::swap(a, b);
  const std::uint64_t key = pair_key(a, b);
  if (auto it = union_cache_.find(key); it != union_cache_.end()) {
    return it->second;
  }
  ZRef out;
  const Level la = nodes_[a].level;
  const Level lb = nodes_[b].level;
  if (la < lb) {
    out = make_node(la, unite(nodes_[a].lo, b), nodes_[a].hi);
  } else if (lb < la) {
    out = make_node(lb, unite(a, nodes_[b].lo), nodes_[b].hi);
  } else {
    out = make_node(la, unite(nodes_[a].lo, nodes_[b].lo),
                    unite(nodes_[a].hi, nodes_[b].hi));
  }
  union_cache_.emplace(key, out);
  return out;
}

ZRef ZbddManager::without(ZRef a, ZRef b) {
  if (b == kEmptyFamily || a == kEmptyFamily) return a;
  if (b == kUnitFamily) return kEmptyFamily;  // every set ⊇ ∅
  if (a == kUnitFamily) return a;  // ∅ is a superset only of ∅ (handled)
  if (a == b) return kEmptyFamily;
  const std::uint64_t key = pair_key(a, b);
  if (auto it = without_cache_.find(key); it != without_cache_.end()) {
    return it->second;
  }
  const Level la = nodes_[a].level;
  const Level lb = nodes_[b].level;
  ZRef out;
  if (lb < la) {
    // No set of `a` contains b's top variable; only b-sets without it can
    // subsume anything in `a`.
    out = without(a, nodes_[b].lo);
  } else if (la < lb) {
    // S ∪ {x}: x does not occur in b's sets, so subsumption is decided by
    // S alone; similarly for sets without x.
    out = make_node(la, without(nodes_[a].lo, b), without(nodes_[a].hi, b));
  } else {
    // Same top variable x. A set S∪{x} (from a.hi) is a superset of T∈b.lo
    // (T has no x, T ⊆ S∪{x} iff T ⊆ S) or of T'∪{x} (T' ∈ b.hi, iff
    // T' ⊆ S). Sets without x can only be subsumed by b.lo.
    const ZRef hi = without(without(nodes_[a].hi, nodes_[b].lo), nodes_[b].hi);
    const ZRef lo = without(nodes_[a].lo, nodes_[b].lo);
    out = make_node(la, lo, hi);
  }
  without_cache_.emplace(key, out);
  return out;
}

ZRef ZbddManager::minsol(BddManager& bdd, BddRef f) {
  if (f == kFalse) return kEmptyFamily;
  if (f == kTrue) return kUnitFamily;
  if (auto it = minsol_cache_.find(f); it != minsol_cache_.end()) {
    return it->second;
  }
  const BddNode& n = bdd.node(f);
  const ZRef z0 = minsol(bdd, n.lo);
  const ZRef z1_all = minsol(bdd, n.hi);
  // A minimal solution through x=1 must not already be a solution with
  // x=0, i.e. must not subsume a minimal solution of the lo-cofactor.
  const ZRef z1 = without(z1_all, z0);
  const ZRef out = make_node(n.level, z0, z1);
  minsol_cache_.emplace(f, out);
  return out;
}

double ZbddManager::count(ZRef f) {
  std::unordered_map<ZRef, double> memo;
  memo.emplace(kEmptyFamily, 0.0);
  memo.emplace(kUnitFamily, 1.0);
  std::vector<std::pair<ZRef, bool>> stack{{f, false}};
  while (!stack.empty()) {
    auto [r, expanded] = stack.back();
    stack.pop_back();
    if (memo.count(r)) continue;
    const ZNode& n = nodes_[r];
    if (!expanded) {
      stack.push_back({r, true});
      if (!memo.count(n.lo)) stack.push_back({n.lo, false});
      if (!memo.count(n.hi)) stack.push_back({n.hi, false});
      continue;
    }
    memo.emplace(r, memo.at(n.lo) + memo.at(n.hi));
  }
  return memo.at(f);
}

std::size_t ZbddManager::enumerate(
    ZRef f, std::size_t max_sets,
    const std::function<void(const std::vector<Level>&)>& cb) {
  std::size_t produced = 0;
  std::vector<Level> current;
  // Recursive DFS via explicit lambda (families are shallow: depth <=
  // num_levels, but sets are sparse so recursion over hi-chains is short).
  std::function<void(ZRef)> go = [&](ZRef r) {
    if (produced >= max_sets) return;
    if (r == kEmptyFamily) return;
    if (r == kUnitFamily) {
      cb(current);
      ++produced;
      return;
    }
    const ZNode& n = nodes_[r];
    current.push_back(n.level);
    go(n.hi);
    current.pop_back();
    go(n.lo);
  };
  go(f);
  return produced;
}

std::optional<ZbddManager::BestSet> ZbddManager::best_probability(
    ZRef f, const std::vector<double>& level_prob) {
  if (f == kEmptyFamily) return std::nullopt;
  // DP over the DAG in log space, best(r) = min(best(lo), w[level] +
  // best(hi)) with w = -ln p: a product of many probabilities underflows
  // a double (a 600-event AND ladder's MPMCS has -ln P ~ 1600), the sum
  // of their logs does not. Costs order p = 0 members first, then the
  // sum; `kNoSet` marks "no set".
  using Cost = std::pair<std::uint64_t, double>;
  const Cost kNoSet{UINT64_MAX, 0.0};
  const auto via_hi = [&](const ZNode& n, const Cost& hi) {
    if (hi == kNoSet) return kNoSet;
    const double p = level_prob.at(n.level);
    return p > 0.0 ? Cost{hi.first, hi.second - std::log(p)}
                   : Cost{hi.first + 1, hi.second};
  };
  std::unordered_map<ZRef, Cost> best;
  best.emplace(kEmptyFamily, kNoSet);
  best.emplace(kUnitFamily, Cost{0, 0.0});
  std::vector<std::pair<ZRef, bool>> stack{{f, false}};
  while (!stack.empty()) {
    auto [r, expanded] = stack.back();
    stack.pop_back();
    if (best.count(r)) continue;
    const ZNode& n = nodes_[r];
    if (!expanded) {
      stack.push_back({r, true});
      if (!best.count(n.lo)) stack.push_back({n.lo, false});
      if (!best.count(n.hi)) stack.push_back({n.hi, false});
      continue;
    }
    best.emplace(r, std::min(best.at(n.lo), via_hi(n, best.at(n.hi))));
  }

  // Reconstruct one optimal set by walking the argmin choices.
  BestSet out;
  const Cost& top = best.at(f);
  out.probability = top.first > 0 ? 0.0 : std::exp(-top.second);
  ZRef r = f;
  while (!is_terminal(r)) {
    const ZNode& n = nodes_[r];
    if (!(best.at(n.lo) < via_hi(n, best.at(n.hi)))) {
      out.set.push_back(n.level);
      r = n.hi;
    } else {
      r = n.lo;
    }
  }
  return out;
}

std::size_t ZbddManager::size(ZRef f) const {
  std::unordered_map<ZRef, bool> seen;
  std::vector<ZRef> stack{f};
  while (!stack.empty()) {
    const ZRef r = stack.back();
    stack.pop_back();
    if (seen.count(r)) continue;
    seen.emplace(r, true);
    if (!is_terminal(r)) {
      stack.push_back(nodes_[r].lo);
      stack.push_back(nodes_[r].hi);
    }
  }
  return seen.size();
}

}  // namespace fta::bdd
