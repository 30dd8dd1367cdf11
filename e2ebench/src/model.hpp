// The benchmark's own fault-tree model, input generator and document
// writers/readers. Nothing here includes a header of the program: the
// inputs the benchmark measures, and the models its oracles check answers
// against, cannot change when the program changes.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

namespace bench {

enum class Kind : std::uint8_t { Event, And, Or, Vote };

struct Node {
  std::string name;
  Kind kind = Kind::Event;
  double p = 0.0;        ///< Events: configured probability.
  bool enabled = true;   ///< Events: a disabled event cannot occur (p = 0).
  std::uint32_t k = 0;   ///< Vote gates: threshold.
  std::vector<std::uint32_t> kids;
};

class Model {
 public:
  std::uint32_t add_event(const std::string& name, double p);
  std::uint32_t add_gate(const std::string& name, Kind kind,
                         std::vector<std::uint32_t> kids, std::uint32_t k = 0);
  /// Index of a node by name; -1 when absent.
  std::int64_t find(const std::string& name) const;

  std::vector<Node> nodes;
  std::uint32_t top = 0;

  /// Effective probability: 0 while the event is disabled.
  double prob(std::uint32_t i) const {
    return nodes[i].enabled ? nodes[i].p : 0.0;
  }
  /// Nodes reachable from the top, children before parents.
  std::vector<std::uint32_t> topo_order() const;
  /// True when every reachable node has exactly one reachable parent, the
  /// condition under which the dynamic-programming oracle is exact.
  bool tree_shaped() const;
  /// Reachable basic events.
  std::vector<std::uint32_t> events() const;

 private:
  std::unordered_map<std::string, std::uint32_t> by_name_;
};

using Rng = std::mt19937_64;

/// Uniform double in [lo, hi).
double uniform(Rng& rng, double lo, double hi);
/// Log-uniform event probability in [lo, hi].
double log_uniform(Rng& rng, double lo, double hi);

// --- generator families --------------------------------------------------

/// Random gate network over exactly `events` basic events, built bottom-up
/// with fan-in 2..4. `sharing` is the chance that a gate input reuses an
/// already-built node (0 gives a tree); `vote_share` the chance that a gate
/// of fan-in >= 3 is a k-of-n vote; any other gate is an AND with
/// chance 0.4, else an OR.
Model random_dag(Rng& rng, std::uint32_t events, double sharing,
                 double vote_share);

/// Repeated redundant subsystems: `members`-wide k-of-n votes (a member is
/// an event, or an OR of two events when `nested`), combined by an OR or
/// an AND top. Close to `events` basic events.
Model ladder(Rng& rng, std::uint32_t events, bool and_top, bool nested);

/// A 2-of-n vote over n independent 2-of-3 subsystems. Fixed probabilities:
/// the model does not depend on any seed.
Model vote_of_votes(std::uint32_t n);

// --- documents -------------------------------------------------------------

enum class Format : std::uint8_t { Galileo, OpenPsa, Json };

const char* format_ext(Format f);
std::string write_galileo(const Model& m);
std::string write_open_psa(const Model& m);
std::string write_json(const Model& m);
std::string write_document(const Model& m, Format f);
/// The program's native text format, for subtree splices: `root` becomes
/// the document's toplevel.
std::string write_native_subtree(const Model& m, std::uint32_t root);

/// Minimal readers for the corpus subsets (Galileo with prob=/lambda=,
/// Open-PSA with nested and/or/atleast). Throw std::runtime_error.
Model read_galileo(const std::string& text, double mission_time = 1.0);
Model read_open_psa(const std::string& text);

/// Round-trip number formatting (17 significant digits).
std::string fmt_double(double v);

}  // namespace bench
