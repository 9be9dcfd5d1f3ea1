// Same-run per-core FMA peak for the ISA the fp64 kernels dispatch to.
//
// Twelve independent FMA chains per loop keep both FMA ports busy through
// the 4-cycle latency; the best of several short trials is the peak.  Each
// SIMD loop is compiled for its ISA with a target attribute and only called
// when select_isa() chose that ISA, like the library's own kernels.
#include <immintrin.h>

#include <algorithm>

#include "bench.hpp"

namespace perfbench {
namespace {

constexpr int kChains = 12;

__attribute__((target("avx512f"))) double fma_loop_avx512(long iters) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(double(c));
  const __m512d x = _mm512_set1_pd(0.999999);
  const __m512d y = _mm512_set1_pd(1e-6);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], x, y);
  __m512d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_pd(s, acc[c]);
  alignas(64) double lanes[8];
  _mm512_store_pd(lanes, s);
  double sum = 0.0;
  for (double v : lanes) sum += v;
  return sum;
}

__attribute__((target("avx2,fma"))) double fma_loop_avx2(long iters) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(double(c));
  const __m256d x = _mm256_set1_pd(0.999999);
  const __m256d y = _mm256_set1_pd(1e-6);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], x, y);
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, s);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3];
}

double fma_loop_scalar(long iters) {
  double acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = double(c);
  for (long i = 0; i < iters; ++i)
    for (int c = 0; c < kChains; ++c) acc[c] = acc[c] * 0.999999 + 1e-6;
  double s = 0.0;
  for (double v : acc) s += v;
  return s;
}

}  // namespace

double calibrate_peak_gflops(ftgemm::Isa isa) {
  int lanes = 1;
  double (*loop)(long) = fma_loop_scalar;
  if (isa == ftgemm::Isa::kAvx512) {
    lanes = 8;
    loop = fma_loop_avx512;
  } else if (isa == ftgemm::Isa::kAvx2) {
    lanes = 4;
    loop = fma_loop_avx2;
  }
  constexpr long kIters = 1l << 20;
  double best = 0.0;
  volatile double sink = 0.0;
  for (int trial = 0; trial < 16; ++trial) {
    const std::int64_t t0 = now_ns();
    sink = sink + loop(kIters);
    const double s = double(now_ns() - t0) * 1e-9;
    best = std::max(best, 2.0 * kChains * lanes * double(kIters) / s / 1e9);
  }
  return best;
}

}  // namespace perfbench
