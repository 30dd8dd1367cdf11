#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace bench {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

Tracer::Tracer() : origin_(wall_now()) {}

std::size_t Tracer::begin(const std::string& name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.start = wall_now() - origin_;
  s.parent = open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  s.op = op;
  spans_.push_back(std::move(s));
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

double Tracer::end(std::size_t id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  open_.pop_back();
  spans_[id].end = wall_now() - origin_;
  return spans_[id].end - spans_[id].start;
}

std::string Tracer::summary_json() const {
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d = spans_[i].end - spans_[i].start;
    by_name[spans_[i].name].first.push_back(d);
    by_name[spans_[i].name].second.push_back(d - child_time[i]);
  }
  std::string out = "{";
  bool sep = false;
  for (const auto& [name, d] : by_name) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\n  \"%s\": {\"count\": %zu, \"p50_ms\": %.6f, "
                  "\"self_p50_ms\": %.6f}",
                  sep ? "," : "", name.c_str(), d.first.size(),
                  1e3 * median(d.first), 1e3 * median(d.second));
    out += buf;
    sep = true;
  }
  return out + "\n}\n";
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write " + path);
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"span\": %zu, \"parent\": %lld, \"op\": %llu}}",
                  i ? "," : "", s.name.c_str(), 1e6 * s.start,
                  1e6 * (s.end - s.start), i,
                  static_cast<long long>(s.parent),
                  static_cast<unsigned long long>(s.op));
    os << buf;
  }
  os << "\n]}\n";
}

Scope::Scope(Tracer* tracer, const std::string& name, std::uint64_t op)
    : tracer_(tracer), start_(wall_now()) {
  if (tracer_) id_ = tracer_->begin(name, op);
}

double Scope::stop() {
  if (seconds_ < 0.0) {
    seconds_ = tracer_ ? tracer_->end(id_) : wall_now() - start_;
  }
  return seconds_;
}

double Layers::p50(const std::string& name) const {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : median(it->second);
}

double Layers::total(const std::string& name) const {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

}  // namespace bench
