#include "logic/tseitin.hpp"

#include <cassert>
#include <functional>
#include <stdexcept>
#include <unordered_set>

namespace fta::logic {

const char* cardinality_lowering_name(CardinalityLowering mode) noexcept {
  switch (mode) {
    case CardinalityLowering::Expand: return "expand";
    case CardinalityLowering::Totalizer: return "totalizer";
    case CardinalityLowering::Auto: return "auto";
  }
  return "?";
}

bool lowers_to_totalizer(CardinalityLowering mode, std::uint32_t k,
                         std::size_t n) noexcept {
  switch (mode) {
    case CardinalityLowering::Expand: return false;
    case CardinalityLowering::Totalizer: return true;
    case CardinalityLowering::Auto:
      return static_cast<std::uint64_t>(k) * n >= 10;
  }
  return false;
}

namespace {

/// Reachable nodes in topological (children-first) order, iteratively.
std::vector<NodeId> topo_order(const FormulaStore& store, NodeId root) {
  std::vector<NodeId> order;
  std::unordered_map<NodeId, bool> done;
  std::vector<std::pair<NodeId, bool>> stack{{root, false}};
  while (!stack.empty()) {
    auto [id, expanded] = stack.back();
    stack.pop_back();
    if (done.count(id)) continue;
    if (expanded) {
      done.emplace(id, true);
      order.push_back(id);
      continue;
    }
    stack.push_back({id, true});
    for (NodeId c : store.node(id).children) {
      if (!done.count(c)) stack.push_back({c, false});
    }
  }
  return order;
}

struct Polarity {
  bool pos = false;
  bool neg = false;
};

/// Which polarities each node occurs in, starting from a positive root.
/// NOT flips polarity for its child.
std::unordered_map<NodeId, Polarity> polarities(const FormulaStore& store,
                                                NodeId root) {
  std::unordered_map<NodeId, Polarity> pol;
  // Worklist of (node, polarity) pairs; each is processed at most twice.
  std::vector<std::pair<NodeId, bool>> work{{root, true}};
  while (!work.empty()) {
    auto [id, p] = work.back();
    work.pop_back();
    Polarity& entry = pol[id];
    bool& flag = p ? entry.pos : entry.neg;
    if (flag) continue;
    flag = true;
    const FormulaNode& n = store.node(id);
    const bool child_pol = (n.kind == NodeKind::Not) ? !p : p;
    for (NodeId c : n.children) work.push_back({c, child_pol});
  }
  return pol;
}

}  // namespace

TseitinResult tseitin(FormulaStore& store, NodeId root, bool assert_root,
                      TseitinOptions opts) {
  // Voting gates below the totalizer policy are expanded to shared AND/OR
  // structure; the rest stay AtLeast nodes and get counting networks.
  root = store.lower_at_least(root, [&opts](std::uint32_t k, std::size_t n) {
    return !lowers_to_totalizer(opts.card_lowering, k, n);
  });

  TseitinResult res;
  res.num_input_vars = store.num_vars();
  res.cnf = Cnf(store.num_vars());

  const FormulaNode& rn = store.node(root);
  if (rn.kind == NodeKind::True || rn.kind == NodeKind::False) {
    // Degenerate roots: represent with a fresh variable pinned to the
    // constant so callers still get a literal to work with.
    const Var v = res.cnf.new_var();
    res.root = Lit::pos(v);
    res.cnf.add_unit(rn.kind == NodeKind::True ? Lit::pos(v) : Lit::neg(v));
    res.node_lit.emplace(root, res.root);
    if (assert_root && rn.kind == NodeKind::False) {
      // Asserting a false root: force contradiction explicitly.
      res.cnf.add_unit(Lit::pos(v));
      res.cnf.add_unit(Lit::neg(v));
    }
    return res;
  }

  const auto order = topo_order(store, root);
  bool has_card = false;
  for (NodeId id : order) {
    if (store.node(id).kind == NodeKind::AtLeast) {
      has_card = true;
      break;
    }
  }
  // Cardinality gates are polarity-directed regardless of the AND/OR
  // polarity option: their counting clauses are auxiliary definitions.
  const auto pol = (opts.polarity_aware || has_card)
                       ? polarities(store, root)
                       : std::unordered_map<NodeId, Polarity>{};

  auto polarity_of = [&](NodeId id) -> Polarity {
    auto it = pol.find(id);
    assert(it != pol.end());
    return it->second;
  };
  auto needs = [&](NodeId id) -> Polarity {
    if (!opts.polarity_aware) return Polarity{true, true};
    return polarity_of(id);
  };

  // Nodes that hold in *every* model of the asserted encoding: the root
  // and anything on an AND-only path below it. A forced AtLeast gate
  // means its count bound is unconditional — the precondition for the
  // MaxSAT layer's pre-built-core reuse (CardinalityBlock::forced).
  std::unordered_set<NodeId> forced;
  if (assert_root && has_card) {
    std::vector<NodeId> stack{root};
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (!forced.insert(id).second) continue;
      const FormulaNode& fn = store.node(id);
      if (fn.kind == NodeKind::And) {
        for (NodeId c : fn.children) stack.push_back(c);
      }
    }
  }

  for (NodeId id : order) {
    const FormulaNode& n = store.node(id);
    switch (n.kind) {
      case NodeKind::Var:
        res.node_lit.emplace(id, Lit::pos(n.payload));
        break;
      case NodeKind::Not:
        // No auxiliary needed: reuse the child's literal, negated.
        res.node_lit.emplace(id, ~res.node_lit.at(n.children[0]));
        break;
      case NodeKind::And:
      case NodeKind::Or: {
        const Lit g = Lit::pos(res.cnf.new_var());
        res.node_lit.emplace(id, g);
        const Polarity p = needs(id);
        const bool is_and = n.kind == NodeKind::And;
        // For AND: g -> c_i (pos side), (/\ c_i) -> g (neg side).
        // For OR:  g -> (\/ c_i) (pos side), c_i -> g (neg side).
        if (is_and ? p.pos : p.neg) {
          for (NodeId c : n.children) {
            const Lit cl = res.node_lit.at(c);
            res.cnf.add_binary(is_and ? ~g : g, is_and ? cl : ~cl);
          }
        }
        if (is_and ? p.neg : p.pos) {
          Clause big;
          big.reserve(n.children.size() + 1);
          big.push_back(is_and ? g : ~g);
          for (NodeId c : n.children) {
            const Lit cl = res.node_lit.at(c);
            big.push_back(is_and ? ~cl : cl);
          }
          res.cnf.add_clause(std::move(big));
        }
        break;
      }
      case NodeKind::True:
      case NodeKind::False:
        // Constants are folded by the store constructors; they can only be
        // the root, which is handled above.
        throw std::logic_error("tseitin: unexpected constant inner node");
      case NodeKind::AtLeast: {
        // Cardinality-native lowering: one totalizer counting network,
        // polarity-directed. Positive occurrences need the gate to
        // *enforce* the count (downward half + g -> o_k); negative ones
        // need it to *detect* the count (upward half + o_k -> g).
        const Lit g = Lit::pos(res.cnf.new_var());
        res.node_lit.emplace(id, g);
        const Polarity p = polarity_of(id);
        CardinalityBlock blk;
        blk.k = n.payload;
        blk.gate = g;
        blk.inputs.reserve(n.children.size());
        for (NodeId c : n.children) {
          blk.inputs.push_back(res.node_lit.at(c));
        }
        blk.forced = forced.count(id) != 0;
        TotalizerTree tree(blk.inputs);
        CnfSink sink(res.cnf);
        if (p.pos) {
          tree.ensure_downward(sink, blk.k);
          res.cnf.add_binary(~g, tree.at_least(blk.k));
          blk.downward = true;
        }
        if (p.neg) {
          tree.ensure_upward(sink, blk.k);
          res.cnf.add_binary(g, ~tree.at_least(blk.k));
          blk.upward = true;
        }
        blk.layout = tree.layout();
        res.cards.push_back(std::move(blk));
        break;
      }
    }
  }

  res.root = res.node_lit.at(root);
  if (assert_root) res.cnf.add_unit(res.root);
  return res;
}

std::optional<Cnf> distributive_cnf(FormulaStore& store, NodeId root,
                                    std::size_t max_clauses) {
  // Normalize: lower voting gates and push negations to the leaves.
  root = store.lower_at_least(root);
  root = store.negate_nnf(store.negate_nnf(root));  // NNF of root itself

  using ClauseSet = std::vector<Clause>;
  std::unordered_map<NodeId, ClauseSet> memo;
  bool overflow = false;

  std::function<const ClauseSet&(NodeId)> go =
      [&](NodeId id) -> const ClauseSet& {
    auto it = memo.find(id);
    if (it != memo.end()) return it->second;
    const FormulaNode& n = store.node(id);
    ClauseSet out;
    switch (n.kind) {
      case NodeKind::False:
        out.push_back({});  // the empty clause: unsatisfiable
        break;
      case NodeKind::True:
        break;  // no clauses
      case NodeKind::Var:
        out.push_back({Lit::pos(n.payload)});
        break;
      case NodeKind::Not: {
        const FormulaNode& c = store.node(n.children[0]);
        assert(c.kind == NodeKind::Var && "NNF guarantees literal NOTs");
        out.push_back({Lit::neg(c.payload)});
        break;
      }
      case NodeKind::And:
        for (NodeId c : n.children) {
          const ClauseSet& cs = go(c);
          out.insert(out.end(), cs.begin(), cs.end());
          if (out.size() > max_clauses) {
            overflow = true;
            break;
          }
        }
        break;
      case NodeKind::Or: {
        // Cross product of children clause sets.
        out.push_back({});
        for (NodeId c : n.children) {
          const ClauseSet& cs = go(c);
          ClauseSet next;
          next.reserve(out.size() * cs.size());
          for (const Clause& a : out) {
            for (const Clause& b : cs) {
              Clause merged = a;
              merged.insert(merged.end(), b.begin(), b.end());
              next.push_back(std::move(merged));
              if (next.size() > max_clauses) {
                overflow = true;
                break;
              }
            }
            if (overflow) break;
          }
          out = std::move(next);
          if (overflow) break;
        }
        break;
      }
      case NodeKind::AtLeast:
        assert(false && "lowered above");
        break;
    }
    return memo.emplace(id, std::move(out)).first->second;
  };

  const ClauseSet& clauses = go(root);
  if (overflow) return std::nullopt;
  Cnf cnf(store.num_vars());
  for (const Clause& c : clauses) cnf.add_clause(c);
  return cnf;
}

}  // namespace fta::logic
