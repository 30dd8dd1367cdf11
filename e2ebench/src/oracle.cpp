#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <stdexcept>

namespace bench {

bool cost_less(const Cost& a, const Cost& b) {
  if (a.impossible != b.impossible) return a.impossible < b.impossible;
  return a.log < b.log;
}

namespace {

Cost event_cost(const Model& m, std::uint32_t id) {
  const double p = m.prob(id);
  return p > 0.0 ? Cost{0, -std::log(p), 1} : Cost{1, 0.0, 1};
}

Cost plus(const Cost& a, const Cost& b) {
  return {a.impossible + b.impossible, a.log + b.log, a.size + b.size};
}

/// The k cheapest entries of {a_i + b_j}.
std::vector<Cost> k_best_sums(const std::vector<Cost>& a,
                              const std::vector<Cost>& b, std::size_t k) {
  std::vector<Cost> out;
  out.reserve(a.size() * b.size());
  for (const Cost& x : a) {
    for (const Cost& y : b) out.push_back(plus(x, y));
  }
  std::sort(out.begin(), out.end(), cost_less);
  if (out.size() > k) out.resize(k);
  return out;
}

std::vector<Cost> k_best_merge(std::vector<Cost> a, const std::vector<Cost>& b,
                               std::size_t k) {
  a.insert(a.end(), b.begin(), b.end());
  std::sort(a.begin(), a.end(), cost_less);
  if (a.size() > k) a.resize(k);
  return a;
}

/// Rounding slack between two costs at the program's weight scale.
double tolerance(std::uint32_t size_a, std::uint32_t size_b, double ref,
                 double scale) {
  return 0.5 * (size_a + size_b) / scale + 1e-9 * (1.0 + std::fabs(ref));
}

std::string describe(const Cost& c) {
  return "(" + std::to_string(c.impossible) + " impossible, -ln P = " +
         fmt_double(c.log) + ", " + std::to_string(c.size) + " members)";
}

}  // namespace

Cost cost_of(const Model& m, const std::vector<std::uint32_t>& events) {
  Cost c;
  for (const std::uint32_t e : events) c = plus(c, event_cost(m, e));
  return c;
}

Evaluator::Evaluator(const Model& m)
    : m_(m), order_(m.topo_order()), value_(m.nodes.size(), 0) {}

bool Evaluator::is_cut(const std::vector<std::uint32_t>& events) const {
  for (const std::uint32_t id : order_) value_[id] = 0;
  for (const std::uint32_t e : events) value_[e] = 1;
  for (const std::uint32_t id : order_) {
    const Node& n = m_.nodes[id];
    if (n.kind == Kind::Event) continue;
    std::uint32_t on = 0;
    for (const std::uint32_t c : n.kids) on += value_[c];
    const std::uint32_t need = n.kind == Kind::And  ? n.kids.size()
                               : n.kind == Kind::Or ? 1
                                                    : n.k;
    value_[id] = on >= need ? 1 : 0;
  }
  return value_[m_.top] != 0;
}

bool Evaluator::is_minimal_cut(const std::vector<std::uint32_t>& events) const {
  if (!is_cut(events)) return false;
  std::vector<std::uint32_t> rest;
  for (std::size_t i = 0; i < events.size(); ++i) {
    rest.assign(events.begin(), events.end());
    rest.erase(rest.begin() + static_cast<std::ptrdiff_t>(i));
    if (is_cut(rest)) return false;
  }
  return true;
}

Cost dp_optimum(const Model& m) {
  std::vector<Cost> best(m.nodes.size());
  std::vector<Cost> kids;
  for (const std::uint32_t id : m.topo_order()) {
    const Node& n = m.nodes[id];
    if (n.kind == Kind::Event) {
      best[id] = event_cost(m, id);
      continue;
    }
    kids.clear();
    for (const std::uint32_t c : n.kids) kids.push_back(best[c]);
    std::sort(kids.begin(), kids.end(), cost_less);
    const std::size_t take = n.kind == Kind::And  ? kids.size()
                             : n.kind == Kind::Or ? 1
                                                  : n.k;
    Cost sum;
    for (std::size_t i = 0; i < take; ++i) sum = plus(sum, kids[i]);
    best[id] = sum;
  }
  return best[m.top];
}

std::vector<Cost> dp_top_k(const Model& m, std::size_t k) {
  std::vector<std::vector<Cost>> lists(m.nodes.size());
  for (const std::uint32_t id : m.topo_order()) {
    const Node& n = m.nodes[id];
    std::vector<Cost>& out = lists[id];
    switch (n.kind) {
      case Kind::Event:
        out = {event_cost(m, id)};
        break;
      case Kind::Or:
        for (const std::uint32_t c : n.kids) out = k_best_merge(out, lists[c], k);
        break;
      case Kind::And:
        out = {Cost{}};
        for (const std::uint32_t c : n.kids) out = k_best_sums(out, lists[c], k);
        break;
      case Kind::Vote: {
        // chosen[j]: k-best costs of picking exactly j children so far.
        std::vector<std::vector<Cost>> chosen(n.k + 1);
        chosen[0] = {Cost{}};
        for (const std::uint32_t c : n.kids) {
          for (std::size_t j = n.k; j >= 1; --j) {
            chosen[j] = k_best_merge(chosen[j],
                                     k_best_sums(chosen[j - 1], lists[c], k), k);
          }
        }
        out = chosen[n.k];
        break;
      }
    }
  }
  return lists[m.top];
}

Exhaustive::Exhaustive(const Model& m) {
  const std::vector<std::uint32_t> events = m.events();
  const std::size_t n = events.size();
  if (n > kExhaustiveEvents) {
    throw std::invalid_argument("model too large for exhaustive search");
  }
  std::vector<std::int32_t> bit(m.nodes.size(), -1);
  for (std::size_t i = 0; i < n; ++i) bit[events[i]] = static_cast<int>(i);
  const std::vector<std::uint32_t> order = m.topo_order();
  std::vector<std::uint8_t> cut(std::size_t{1} << n, 0);
  std::vector<std::uint8_t> value(m.nodes.size(), 0);
  for (std::size_t mask = 0; mask < cut.size(); ++mask) {
    for (const std::uint32_t id : order) {
      const Node& nd = m.nodes[id];
      if (nd.kind == Kind::Event) {
        value[id] = (mask >> bit[id]) & 1u;
        continue;
      }
      std::uint32_t on = 0;
      for (const std::uint32_t c : nd.kids) on += value[c];
      const std::uint32_t need = nd.kind == Kind::And  ? nd.kids.size()
                                 : nd.kind == Kind::Or ? 1
                                                       : nd.k;
      value[id] = on >= need ? 1 : 0;
    }
    cut[mask] = value[m.top];
  }
  std::vector<std::size_t> minimal;
  for (std::size_t mask = 0; mask < cut.size(); ++mask) {
    if (!cut[mask]) continue;
    bool is_min = true;
    for (std::size_t b = 0; b < n && is_min; ++b) {
      if ((mask >> b) & 1u) is_min = !cut[mask & ~(std::size_t{1} << b)];
    }
    if (is_min) minimal.push_back(mask);
  }
  for (const std::size_t mask : minimal) {
    std::vector<std::uint32_t> set;
    for (std::size_t b = 0; b < n; ++b) {
      if ((mask >> b) & 1u) set.push_back(events[b]);
    }
    costs.push_back(cost_of(m, set));
    mcs.push_back(std::move(set));
  }
  std::vector<std::size_t> idx(mcs.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return cost_less(costs[a], costs[b]);
  });
  std::vector<std::vector<std::uint32_t>> sorted_mcs;
  std::vector<Cost> sorted_costs;
  for (const std::size_t i : idx) {
    sorted_mcs.push_back(std::move(mcs[i]));
    sorted_costs.push_back(costs[i]);
  }
  mcs = std::move(sorted_mcs);
  costs = std::move(sorted_costs);
}

Expected expect(const Model& m, std::size_t top_k) {
  Expected x;
  if (m.events().size() <= kExhaustiveEvents) {
    const Exhaustive ex(m);
    x.exact = true;
    x.optimum = ex.costs.front();
    x.top.assign(ex.costs.begin(),
                 ex.costs.begin() + static_cast<std::ptrdiff_t>(
                                        std::min(top_k, ex.costs.size())));
    x.top_exact = true;
    return x;
  }
  x.optimum = dp_optimum(m);
  if (m.tree_shaped()) {
    x.exact = true;
    if (top_k > 0) {
      x.top = dp_top_k(m, top_k);
      x.top_exact = true;
    }
  }
  return x;
}

std::string check_answer(const Model& m, const Evaluator& ev,
                         const Expected& x,
                         const std::vector<std::uint32_t>& cut,
                         double probability, double log_cost, double scale) {
  if (cut.empty()) return "empty cut";
  if (!ev.is_cut(cut)) return "answer is not a cut set";
  if (!ev.is_minimal_cut(cut)) return "answer is not a minimal cut set";
  // Step 6: P recomputed as the product of the members' probabilities.
  double p = 1.0;
  for (const std::uint32_t e : cut) p *= m.prob(e);
  if (std::fabs(p - probability) > 1e-12 + 1e-9 * p) {
    return "probability " + fmt_double(probability) + " != product " +
           fmt_double(p);
  }
  const Cost c = cost_of(m, cut);
  if (c.impossible == 0 &&
      std::fabs(c.log - log_cost) > 1e-9 * (1.0 + c.log)) {
    return "log cost " + fmt_double(log_cost) + " != " + fmt_double(c.log);
  }
  const Cost& o = x.optimum;
  const double slack = tolerance(c.size, o.size, o.log, scale);
  if (x.exact) {
    if (c.impossible != o.impossible || c.log < o.log - 1e-9 * (1 + o.log) ||
        c.log > o.log + slack) {
      return "cost " + describe(c) + " is not the optimum " + describe(o);
    }
  } else if (c.impossible > o.impossible ||
             (c.impossible == o.impossible && c.log > o.log + slack)) {
    return "cost " + describe(c) + " exceeds a known cut " + describe(o);
  }
  return {};
}

std::string check_top_k(const Model& m, const Evaluator& ev,
                        const Expected& x,
                        const std::vector<std::vector<std::uint32_t>>& cuts,
                        std::size_t k, double scale) {
  if (cuts.empty() || cuts.size() > k) {
    return "top-k returned " + std::to_string(cuts.size()) + " sets";
  }
  std::set<std::vector<std::uint32_t>> seen;
  std::vector<Cost> costs;
  std::uint32_t widest = 0;
  for (const auto& cut : cuts) {
    std::vector<std::uint32_t> sorted = cut;
    std::sort(sorted.begin(), sorted.end());
    if (!seen.insert(sorted).second) return "top-k repeats a set";
    if (!ev.is_minimal_cut(cut)) return "top-k set is not a minimal cut set";
    costs.push_back(cost_of(m, cut));
    widest = std::max(widest, costs.back().size);
  }
  for (const Cost& c : x.top) widest = std::max(widest, c.size);
  for (std::size_t i = 1; i < costs.size(); ++i) {
    const double slack = tolerance(widest, widest, costs[i].log, scale);
    if (costs[i].impossible < costs[i - 1].impossible ||
        (costs[i].impossible == costs[i - 1].impossible &&
         costs[i].log < costs[i - 1].log - slack)) {
      return "top-k is out of cost order at position " + std::to_string(i);
    }
  }
  if (x.top_exact) {
    if (costs.size() != x.top.size()) {
      return "top-k returned " + std::to_string(costs.size()) +
             " sets, the model has " + std::to_string(x.top.size());
    }
    for (std::size_t i = 0; i < costs.size(); ++i) {
      const double slack = tolerance(widest, widest, x.top[i].log, scale);
      if (costs[i].impossible != x.top[i].impossible ||
          std::fabs(costs[i].log - x.top[i].log) > slack) {
        return "top-k position " + std::to_string(i) + " cost " +
               describe(costs[i]) + " != " + describe(x.top[i]);
      }
    }
    return {};
  }
  const Cost& o = x.optimum;
  if (costs[0].impossible > o.impossible ||
      (costs[0].impossible == o.impossible &&
       costs[0].log > o.log + tolerance(costs[0].size, o.size, o.log, scale))) {
    return "top-k head " + describe(costs[0]) + " exceeds " + describe(o);
  }
  return {};
}

std::string check_fig1(const std::vector<std::string>& names,
                       double probability) {
  std::vector<std::string> sorted = names;
  std::sort(sorted.begin(), sorted.end());
  if (sorted != std::vector<std::string>{"x1", "x2"}) {
    return "Fig. 1 MPMCS is not {x1, x2}";
  }
  if (std::fabs(probability - 0.02) > 1e-12) {
    return "Fig. 1 probability " + fmt_double(probability) + " != 0.02";
  }
  return {};
}

}  // namespace bench
