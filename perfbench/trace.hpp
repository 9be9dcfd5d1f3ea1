// Spans and the metric report of the repository benchmark.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into one layer of the library; the library itself is not instrumented.
// Each span carries its name, start, end, the span that caused it (0 =
// none) and the request it belongs to.  Spans stay in memory and are
// written out once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::uint32_t name = 0;
  std::uint32_t parent = 0;  ///< 1-based index of the causing span, 0 = none
  std::uint64_t request = 0;
  std::int64_t t0 = 0, t1 = 0;
};

/// Single-threaded span recorder; disabled recorders record nothing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {
    if (on_) spans_.reserve(1u << 16);
  }
  [[nodiscard]] bool on() const { return on_; }

  /// Record a finished span; returns its 1-based id (0 when disabled).
  std::uint32_t add(const std::string& name, std::int64_t t0, std::int64_t t1,
                    std::uint32_t parent = 0, std::uint64_t request = 0) {
    if (!on_) return 0;
    spans_.push_back({intern(name), parent, request, t0, t1});
    return std::uint32_t(spans_.size());
  }

  /// Time fn() as one span named `name`; returns its duration in seconds.
  template <typename F>
  double time(const std::string& name, F&& fn, std::uint32_t parent = 0) {
    const std::int64_t t0 = now_ns();
    fn();
    const std::int64_t t1 = now_ns();
    add(name, t0, t1, parent);
    return double(t1 - t0) * 1e-9;
  }

  /// Durations (seconds) of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    const auto it = ids_.find(name);
    if (it == ids_.end()) return out;
    for (const Span& s : spans_)
      if (s.name == it->second) out.push_back(double(s.t1 - s.t0) * 1e-9);
    return out;
  }

  /// Median duration of the named spans, in seconds (0 when none).
  [[nodiscard]] double median_s(const std::string& name) const {
    return median(durations(name));
  }

  /// Write every span as one JSON object per line.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"parent\":%u,\"request\":%llu,"
                   "\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   i + 1, names_[s.name].c_str(), s.parent,
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.t0), static_cast<long long>(s.t1));
    }
    return std::fclose(f) == 0;
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  std::uint32_t intern(const std::string& name) {
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    names_.push_back(name);
    const auto id = std::uint32_t(names_.size() - 1);
    ids_.emplace(name, id);
    return id;
  }

  bool on_;
  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> ids_;
};

/// Named metrics in print order, plus the run's outcome counters.
class Report {
 public:
  /// `note` says how the value was obtained (percentile, sample count).
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit, note});
  }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Count one failed operation or check, with what failed.
  void fail(const std::string& what) {
    ++failed_;
    if (failures_.size() < 20) failures_.push_back(what);
  }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  [[nodiscard]] bool has(const std::string& name) const {
    for (const Metric& m : metrics_)
      if (m.name == name) return true;
    return false;
  }

  /// Put the metrics in the order of `spec` (name, unit); false unless the
  /// report holds exactly those names, once each, with those units.
  bool conform(const std::vector<std::pair<std::string, std::string>>& spec) {
    if (spec.size() != metrics_.size()) return false;
    std::vector<Metric> out;
    for (const auto& [name, unit] : spec) {
      const Metric* found = nullptr;
      for (const Metric& m : metrics_)
        if (m.name == name) found = &m;
      if (found == nullptr || found->unit != unit) return false;
      out.push_back(*found);
    }
    metrics_ = std::move(out);
    return true;
  }

  /// Human-readable lines, then the one-line JSON result last.
  void print() const {
    for (const std::string& f : failures_)
      std::printf("FAILED: %s\n", f.c_str());
    for (const Metric& m : metrics_)
      std::printf("metric %-34s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                failed_ == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Note text for a percentile metric: "p99 of n=1234".
inline std::string tail_note(const Tail& t) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%g of n=%zu", t.pct, t.samples);
  return buf;
}

}  // namespace perfbench
