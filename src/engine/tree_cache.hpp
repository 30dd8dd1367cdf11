// Structural-hash cache of the pipeline's Step 1-4 artefacts.
//
// Heavy multi-tree traffic is dominated by re-analysis of the same (or
// structurally identical) models: monitoring re-checks a plant model with
// every configuration push, and generated corpora repeat shapes. The
// engine therefore keys the expensive transformation steps — success-tree
// formula construction, Tseitin CNF and the Weighted Partial MaxSAT
// instance — on a canonical structural signature of the tree, so repeated
// trees go straight to Step 5 (solving).
//
// The signature is an exact canonical encoding, not a lossy hash: node
// shape, gate types/thresholds, event indices and probability bit
// patterns, plus the transformation options that shape the instance
// (weight scale, vote-gate lowering, incremental sessions, the module
// pass, the Step 3.5 preprocessing configuration). Event/gate *names* are
// excluded — renaming every node of a tree yields the same artefacts.
// Which optimal cut a solve returns is further keyed by outcome_key.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/pipeline.hpp"
#include "ft/fault_tree.hpp"
#include "maxsat/instance.hpp"

namespace fta::engine {

/// The cached Step 1-4 artefact plus the Step 3.5 preprocessing result:
/// everything needed to jump to Step 5.
///
/// Entries also carry a second cache tier: solutions memoized per solver
/// configuration (see EngineOptions::memoize_results). The artefact is
/// solver-independent; a memoized solution is keyed by outcome_key.
struct PreparedTree {
  core::PreparedInstance prepared;
  double build_seconds = 0.0;  ///< Transformation cost this entry saved.

  mutable std::mutex memo_mutex;
  mutable std::unordered_map<std::string, core::MpmcsSolution> solutions;
  /// Complete top-k enumerations memoized per (solver configuration, k):
  /// a repeated top-k request replays the sequence without any SAT calls.
  mutable std::unordered_map<std::string, std::vector<core::MpmcsSolution>>
      topk_solutions;

  /// The incremental sessions' footprint, lock-free (see
  /// IncrementalSolveSession::memory_bytes_estimate). 0 without a session.
  std::size_t session_bytes_estimate() const noexcept {
    return prepared.session_bytes_estimate();
  }
};

using PreparedTreePtr = std::shared_ptr<const PreparedTree>;

/// Canonical structural signature of (tree, transformation options):
/// equal strings iff the Step 1-4 artefacts are identical.
std::string structural_key(const ft::FaultTree& tree,
                           const core::PipelineOptions& opts);

/// The solver configuration that decides which optimal cut comes back —
/// the solver choice and the shrink pass. It keys the memoized solutions
/// of a PreparedTree (top-k appends k) and, after the structural key, the
/// service's coalescing of identical in-flight requests.
std::string outcome_key(const core::PipelineOptions& opts);

/// Thread-safe LRU cache over prepared trees.
class TreeCache {
 public:
  explicit TreeCache(std::size_t capacity) : capacity_(capacity) {}

  /// Returns the entry for `key` (refreshing its recency), or null.
  PreparedTreePtr find(const std::string& key);

  /// Delta-match probe: like find(), but for looking up the *base* entry
  /// of a mutated tree (the engine patches it via
  /// MpmcsPipeline::derive_prepared instead of cold-preparing the edited
  /// tree). Counted separately — a base hit is a successful delta match,
  /// not an exact-key hit, and a base miss is not an extra miss (the
  /// exact lookup already recorded one).
  PreparedTreePtr find_base(const std::string& key);

  /// Inserts `key` and returns the resident entry. When another thread
  /// raced the build and inserted first, the *existing* entry wins (so
  /// its memoized solutions survive) and is returned instead of `value`.
  /// Evicts least-recently-used entries beyond capacity; with capacity 0
  /// nothing is stored and `value` is returned unchanged.
  PreparedTreePtr insert(const std::string& key, PreparedTreePtr value);

  void clear();

  /// Sum of the resident entries' incremental-session footprints
  /// (lock-free per-entry estimates; sessions without a footprint yet —
  /// never solved — count as zero).
  std::size_t session_memory_bytes() const;

  /// Memory-bounds the session pool: while the total session footprint
  /// exceeds `cap`, evicts least-recently-used entries that carry a
  /// session (entries without one are skipped — they hold no solver
  /// state). Returns the number of entries evicted. No-op when cap == 0
  /// (unbounded). Sessions still referenced by an in-flight solve stay
  /// alive through their shared_ptr until the solve finishes.
  std::size_t shed_sessions(std::size_t cap);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const noexcept { return hits_.load(); }
  std::uint64_t misses() const noexcept { return misses_.load(); }
  /// Successful delta matches (find_base hits that seeded a derived
  /// artefact).
  std::uint64_t delta_hits() const noexcept { return delta_hits_.load(); }
  std::uint64_t session_evictions() const noexcept {
    return session_evictions_.load();
  }

 private:
  struct Entry {
    PreparedTreePtr value;
    std::list<std::string>::iterator lru_pos;
  };

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> lru_;  // front = most recent
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> delta_hits_{0};
  std::atomic<std::uint64_t> session_evictions_{0};
};

}  // namespace fta::engine
