// Tests of the benchmark's own helpers (stats.hpp): quantiles, tail
// selection, the pair-ratio median and the seeded schedule.  Plain checks
// that stay active in every build type; exit code 0 = all passed.
#include <cmath>
#include <cstdio>

#include "stats.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-12; }

void test_quantile() {
  using perfbench::quantile;
  expect(quantile({}, 0.5) == 0.0, "empty quantile is 0");
  expect(near(quantile({3, 1, 2}, 0.5), 2.0), "odd median");
  expect(near(quantile({4, 1, 3, 2}, 0.5), 2.5), "even median interpolates");
  expect(near(quantile({1, 2, 3, 4, 5}, 0.0), 1.0), "q=0 is the minimum");
  expect(near(quantile({1, 2, 3, 4, 5}, 1.0), 5.0), "q=1 is the maximum");
  expect(near(quantile({0, 10}, 0.9), 9.0), "linear interpolation");
}

void test_tail() {
  using perfbench::tail;
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  auto t = tail(v, 99);
  expect(t.pct == 99.0 && t.samples == 1000, "1000 samples support p99");
  expect(near(t.value, perfbench::quantile(v, 0.99)), "p99 value");
  v.resize(999);
  expect(tail(v, 99).pct == 95.0, "999 samples fall back to p95");
  v.resize(100);
  expect(tail(v, 99).pct == 90.0, "100 samples fall back to p90");
  expect(tail(v, 90).pct == 90.0, "p90 requested and supported");
  v.resize(5);
  expect(tail(v, 99).pct == 50.0, "too few samples give the median");
}

void test_windowed() {
  using perfbench::windowed_quantile;
  std::vector<double> v;
  for (int w = 0; w < 5; ++w)
    for (int i = 0; i < 100; ++i) v.push_back(w == 2 ? 1000.0 : i);
  // One window of outliers: the pooled p99 is an outlier, the typical
  // window's p99 is not.
  expect(perfbench::quantile(v, 0.99) == 1000.0, "pooled p99 is the outlier");
  expect(near(windowed_quantile(v, 100, 0.99), 98.01),
         "windowed p99 is the typical window's");
  expect(near(windowed_quantile(v, 100, 0.5), 49.5), "windowed median");
  v.resize(250);  // windows [0,100) and [100,250): the short tail joins
  expect(near(windowed_quantile(v, 100, 1.0), 0.5 * (99.0 + 1000.0)),
         "short last window merged, not dropped");
  v.resize(150);
  expect(near(windowed_quantile(v, 100, 0.5), perfbench::quantile(v, 0.5)),
         "fewer than two windows: pooled");
}

void test_pair_ratio() {
  using perfbench::pair_ratio_median;
  // Ori 1 s vs FT 1.25 s in every pair: FT runs at 0.8 of Ori's rate.
  expect(near(pair_ratio_median({1.25, 1.25, 1.25}, {1, 1, 1}), 0.8),
         "constant pair ratio");
  // Drift that scales both calls of a pair cancels within the pair.
  expect(near(pair_ratio_median({2, 4, 8}, {1, 2, 4}), 0.5),
         "pairing cancels drift");
  expect(near(pair_ratio_median({1, 1, 1}, {1, 2, 9}), 2.0),
         "median, not mean, of the ratios");
  expect(near(pair_ratio_median({1, 1}, {1, 1, 5}), 1.0),
         "unpaired tail ignored");
}

void test_schedule() {
  using perfbench::poisson_schedule;
  const std::vector<double> w = {0.45, 0.45, 0.10};
  const auto a = poisson_schedule(7, 2000.0, 2.0, w, 8);
  const auto b = poisson_schedule(7, 2000.0, 2.0, w, 8);
  const auto c = poisson_schedule(8, 2000.0, 2.0, w, 8);
  perfbench::Fnv ha, hb, hc;
  perfbench::hash_schedule(ha, a);
  perfbench::hash_schedule(hb, b);
  perfbench::hash_schedule(hc, c);
  expect(ha.value() == hb.value(), "same seed, same schedule hash");
  expect(ha.value() != hc.value(), "another seed, another schedule");
  expect(a.size() > 3800 && a.size() < 4200, "Poisson count near rate * s");
  bool sorted = true, in_range = true;
  std::size_t cold = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (i > 0 && a[i].due_ns < a[i - 1].due_ns) sorted = false;
    if (a[i].due_ns >= 2000000000 || a[i].input < 0 || a[i].input >= 8 ||
        a[i].cls < 0 || a[i].cls > 2)
      in_range = false;
    cold += a[i].cls == 2;
  }
  expect(sorted, "due times ascend");
  expect(in_range, "due times, classes and inputs in range");
  const double share = double(cold) / double(a.size());
  expect(share > 0.08 && share < 0.12, "class shares follow the weights");
}

}  // namespace

int main() {
  test_quantile();
  test_tail();
  test_windowed();
  test_pair_ratio();
  test_schedule();
  if (failures == 0) std::printf("test_perfbench: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
