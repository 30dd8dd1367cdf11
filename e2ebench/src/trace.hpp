// Clocks, sample statistics and the traced run's spans.
//
// A span records its name, start, end, parent span and operation id. Spans
// stay in memory and are written at the end of the run as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace bench {

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of the whole process (all threads, live and exited), seconds.
double cpu_now();
/// Peak resident set of the process so far, MiB.
double peak_rss_mb();

/// Quantile by linear interpolation; q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

struct Span {
  std::string name;
  double start = 0.0;  ///< Seconds since the tracer's origin.
  double end = 0.0;
  std::int64_t parent = -1;
  std::uint64_t op = 0;
};

class Tracer {
 public:
  Tracer();

  /// Opens a span under the innermost open one; returns its id.
  std::size_t begin(const std::string& name, std::uint64_t op);
  /// Closes span `id` (the innermost open one); returns its duration.
  double end(std::size_t id);

  /// Per-name count, median duration and median self time (duration
  /// minus the time its child spans cover), in milliseconds.
  std::string summary_json() const;
  void write_chrome_trace(const std::string& path) const;

 private:
  double origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII span; a null tracer makes it a plain stopwatch.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::uint64_t op);
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  /// Ends the span early; returns its duration in seconds.
  double stop();

 private:
  Tracer* tracer_;
  std::size_t id_ = 0;
  double start_;
  double seconds_ = -1.0;
};

/// Named per-layer samples and counters collected during a traced run.
struct Layers {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> totals;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
  void count(const std::string& name, double v = 1.0) { totals[name] += v; }
  double p50(const std::string& name) const;
  double total(const std::string& name) const;
};

}  // namespace bench
