#include "engine/tree_cache.hpp"

#include <cstring>

#include "util/failpoint.hpp"

namespace fta::engine {

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

void append_f64(std::string& out, double v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof v);
}

}  // namespace

std::string structural_key(const ft::FaultTree& tree,
                           const core::PipelineOptions& opts) {
  // Node indices are insertion-ordered and stable, so encoding nodes in
  // index order is canonical for any two trees built the same way; names
  // are deliberately omitted.
  std::string key;
  key.reserve(tree.num_nodes() * 16 + 48);
  append_f64(key, opts.weight_scale);
  // Vote-gate lowering shapes the CNF and the cardinality metadata the
  // session engines rely on: a different mode is a different artefact.
  key.push_back(static_cast<char>('0' + static_cast<int>(opts.card_lowering)));
  // Incremental sessions ride with the artefact; flipping the mode must
  // invalidate the entry (an incremental-off artefact has no session and
  // would silently pin the cached hot path to stateless solving).
  key.push_back(opts.incremental ? 'I' : 'i');
  // Auto's module pass may leave the whole-tree instance unbuilt and
  // attach per-module artefacts instead, while every other choice solves
  // the tree as one instance, so the two shapes must not share a cache
  // entry. The key is taken before the artefact exists, and telling the
  // shapes apart would cost the module pass on every lookup, so Auto keys
  // apart even where its artefact is the whole-tree one (a top gate that
  // is itself a frontier module): mixed-choice traffic on such a tree
  // prepares it once per side. The solver choice is otherwise
  // deliberately NOT part of the key.
  key.push_back(opts.solver == core::SolverChoice::Auto ? 'T' : 't');
  // Step 3.5: a preprocessed instance is a different artefact (the
  // reconstructor travels with it).
  key.push_back(opts.preprocess ? 'Z' : 'z');
  append_u32(key, static_cast<std::uint32_t>(tree.num_nodes()));
  append_u32(key, static_cast<std::uint32_t>(tree.num_events()));
  append_u32(key, tree.top());
  for (ft::NodeIndex i = 0; i < tree.num_nodes(); ++i) {
    const ft::Node& n = tree.node(i);
    key.push_back(static_cast<char>(n.type));
    if (n.type == ft::NodeType::BasicEvent) {
      append_u32(key, n.event_index);
      // Effective probability: a disabled event keys like p = 0, so
      // toggle deltas land on the right cache entries.
      append_f64(key, n.enabled ? n.probability : 0.0);
    } else {
      if (n.type == ft::NodeType::Vote) append_u32(key, n.k);
      append_u32(key, static_cast<std::uint32_t>(n.children.size()));
      for (const ft::NodeIndex c : n.children) append_u32(key, c);
    }
  }
  return key;
}

std::string outcome_key(const core::PipelineOptions& opts) {
  return core::solver_choice_name(opts.solver);
}

PreparedTreePtr TreeCache::find(const std::string& key) {
  // "error" action forces a miss (the engine re-prepares cold, which
  // must stay correct); "throw" models a failing lookup.
  if (FTA_FAILPOINT_BRANCH("cache.lookup")) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

PreparedTreePtr TreeCache::insert(const std::string& key,
                                  PreparedTreePtr value) {
  // "error" action drops the insert (caller keeps its own copy — a
  // correctness-neutral cache failure); "throw" models a hard failure.
  if (FTA_FAILPOINT_BRANCH("cache.insert")) return value;
  if (capacity_ == 0) return value;
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    return it->second.value;
  }
  lru_.push_front(key);
  entries_.emplace(key, Entry{value, lru_.begin()});
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
  }
  return value;
}

std::size_t TreeCache::session_memory_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.value->session_bytes_estimate();
  }
  return total;
}

std::size_t TreeCache::shed_sessions(std::size_t cap) {
  if (cap == 0) return 0;
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, entry] : entries_) {
    total += entry.value->session_bytes_estimate();
  }
  std::size_t evicted = 0;
  // Oldest first; skip sessionless entries — evicting them frees no
  // solver state, and their artefacts are cheap to keep.
  auto it = lru_.end();
  while (total > cap && it != lru_.begin()) {
    --it;
    const auto found = entries_.find(*it);
    const std::size_t bytes = found->second.value->session_bytes_estimate();
    if (bytes == 0) continue;
    total -= bytes;
    entries_.erase(found);
    it = lru_.erase(it);
    ++evicted;
  }
  session_evictions_.fetch_add(evicted, std::memory_order_relaxed);
  return evicted;
}

void TreeCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  lru_.clear();
}

std::size_t TreeCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace fta::engine
