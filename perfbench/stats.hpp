// Statistics and input-schedule helpers of the repository benchmark.
//
// Header-only and free of library dependencies so test_perfbench.cpp can
// check them in isolation: quantiles, tail-percentile selection, the
// adjacent-pair ratio median, and the seeded open-loop arrival schedule
// with the hash that identifies it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Quantile q in [0, 1] by linear interpolation between order statistics
/// (the "inclusive" definition; q = 0.5 is the usual median).  Empty input
/// yields 0.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const std::size_t lo = std::size_t(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// A tail percentile and the samples it rests on.
struct Tail {
  double pct = 0.0;    ///< percentile actually reported (e.g. 99)
  double value = 0.0;  ///< its value
  std::size_t samples = 0;
};

/// The requested percentile when at least `min_beyond` samples lie beyond
/// it, else the highest of 99, 95, 90, 75 and 50 that has them (50 when
/// none does).  A tail from too few samples is one outlier, not a tail.
inline Tail tail(const std::vector<double>& v, double want_pct,
                 std::size_t min_beyond = 10) {
  static constexpr double kLadder[] = {99.0, 95.0, 90.0, 75.0, 50.0};
  double pct = 50.0;
  for (double p : kLadder) {
    if (p > want_pct) continue;
    if (double(v.size()) * (100.0 - p) / 100.0 >= double(min_beyond)) {
      pct = p;
      break;
    }
  }
  return {pct, quantile(v, pct / 100.0), v.size()};
}

/// Quantile q of each consecutive window of `window` samples (a short last
/// window joins the one before it), then the median over windows: the
/// typical window's percentile.  Unlike the pooled percentile, one bad
/// second of a shared host moves it by at most one window's vote.
inline double windowed_quantile(const std::vector<double>& v,
                                std::size_t window, double q) {
  const std::size_t windows = v.size() / window;
  if (windows < 2) return quantile(v, q);
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto lo = std::ptrdiff_t(w * window);
    const auto hi = w + 1 == windows ? std::ptrdiff_t(v.size())
                                     : lo + std::ptrdiff_t(window);
    per_window.push_back(
        quantile(std::vector<double>(v.begin() + lo, v.begin() + hi), q));
  }
  return median(per_window);
}

/// Median over adjacent pairs of ori_time / ft_time, i.e. the FT/Ori
/// throughput ratio of two calls measured back to back (1 - ratio is the
/// FT overhead).  Pairing cancels drift that is slower than one pair.
inline double pair_ratio_median(const std::vector<double>& ft_seconds,
                                 const std::vector<double>& ori_seconds) {
  std::vector<double> r;
  const std::size_t n = std::min(ft_seconds.size(), ori_seconds.size());
  for (std::size_t i = 0; i < n; ++i)
    if (ft_seconds[i] > 0.0) r.push_back(ori_seconds[i] / ft_seconds[i]);
  return median(r);
}

/// SplitMix64: the benchmark's own seeded generator (independent of the
/// library's, so a library change cannot change the inputs).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform integer in [0, bound).
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }

 private:
  std::uint64_t s_;
};

/// FNV-1a, folded one 64-bit word at a time.
class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void add_bytes(const void* p, std::size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// One open-loop arrival: due time from the phase start, request class,
/// and which pre-generated input of that class it carries.
struct Arrival {
  std::int64_t due_ns = 0;
  int cls = 0;
  int input = 0;
};

/// Poisson arrivals at `rate` per second for `seconds`, classes drawn with
/// the given weights, inputs uniform over `inputs_per_class`.  Identical
/// arguments give an identical schedule.
inline std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate,
                                             double seconds,
                                             const std::vector<double>& weights,
                                             int inputs_per_class) {
  Rng rng(seed);
  double total = 0.0;
  for (double w : weights) total += w;
  std::vector<Arrival> out;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = std::int64_t(t * 1e9);
    double u = rng.uniform() * total;
    a.cls = int(weights.size()) - 1;
    for (std::size_t c = 0; c < weights.size(); ++c) {
      if (u < weights[c]) {
        a.cls = int(c);
        break;
      }
      u -= weights[c];
    }
    a.input = int(rng.below(std::uint64_t(inputs_per_class)));
    out.push_back(a);
  }
  return out;
}

inline void hash_schedule(Fnv& h, const std::vector<Arrival>& s) {
  for (const Arrival& a : s) {
    h.add(std::uint64_t(a.due_ns));
    h.add(std::uint64_t(a.cls));
    h.add(std::uint64_t(a.input));
  }
}

}  // namespace perfbench
