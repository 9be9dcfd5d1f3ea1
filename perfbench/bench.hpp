// Shared declarations of the repository benchmark (see README.md).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ftgemm.hpp"
#include "runtime/topology.hpp"
#include "trace.hpp"

namespace perfbench {

using ftgemm::index_t;

/// One invocation of the benchmark binary.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< where the spans go when tracing
};

/// What the run measured about the machine before any workload ran.
struct Machine {
  ftgemm::Isa isa = ftgemm::Isa::kScalar;
  ftgemm::RuntimeBackend backend = ftgemm::RuntimeBackend::kOpenMP;
  double peak_gflops_core = 0.0;  ///< fp64 FMA-loop peak of one core
};

double calibrate_peak_gflops(ftgemm::Isa isa);

/// One square fp64 problem run as alternating Ori / FT free-function calls:
/// the paper's Fig. 2 protocol.  Owns the generated inputs, the baseline
/// reference and (errors > 0) a CountInjector on the FT calls.
struct GemmCase {
  GemmCase(index_t n, int threads, int errors, std::uint64_t seed);

  /// Cold start: drop the process caches, then one Ori and one FT call.
  /// Returns its wall time in seconds; the results are checked.
  double cold_start(Report& report);

  /// Alternate Ori and FT calls (order flipped every pair) for `seconds`,
  /// checking every result outside the timed window.  With a tracer on,
  /// every other pair is recorded as spans so traced and untraced pairs
  /// can be compared.
  void run_pairs(double seconds, Report& report, Tracer& tracer);

  index_t n;
  int threads;
  int errors;
  ftgemm::Options ori_opts, ft_opts;
  std::unique_ptr<ftgemm::CountInjector> injector;
  ftgemm::Matrix<double> a, b, c, ref;
  double tol = 0.0;
  std::uint64_t input_hash = 0;

  // Filled by run_pairs (index-aligned pairs).
  std::vector<double> ori_s, ft_s;
  std::vector<bool> traced;
  std::uint64_t applied = 0, corrected = 0, undelivered = 0;
  std::vector<double> idle_workers;

  /// One Ori or FT call, checked; returns its time in seconds (the
  /// check is outside the timed window).
  double call(bool ft, Report& report);
};

/// GFLOP of one square n^3 GEMM.
inline double gflop(index_t m, index_t n, index_t k) {
  return 2.0 * double(m) * double(n) * double(k) * 1e-9;
}

/// End-to-end GEMM metrics (ft_gflops ... ft_pct_peak) of index-aligned
/// Ori / FT call times of one problem of `gflop` GFLOP on `threads`.
void report_gemm_metrics(const std::vector<double>& ft_s,
                         const std::vector<double>& ori_s, double gflop,
                         int threads, const Machine& mc, Report& r);

/// A problem shape.
struct ShapeSpec {
  index_t m = 0, n = 0, k = 0;
};

/// The plan shapes the per-layer measurements run on: the workload's fp64
/// problem (and its thread count) plus the shape its narrow-storage packs
/// are measured at.
struct LayerShapes {
  ShapeSpec fp64;
  int threads = 1;
  ShapeSpec narrow;
};

/// Per-layer metrics measured on the layers' public functions at the
/// workload's plan shapes (kernels, abft, core planning, runtime, and each
/// layer's share of one FT call).  `errors_per_call` is the workload's
/// injected-error load; `ft_call` runs one of the workload's FT calls and
/// returns its time in seconds, which the shares divide by.
void measure_layers(const LayerShapes& ls, int errors_per_call,
                    const std::function<double()>& ft_call,
                    const Machine& mc, Tracer& tr, Report& r);

int run_gemm_workload(const RunArgs& args, const Machine& mc, index_t n,
                      int threads, int errors, Report& report, Tracer& tr);
int run_serve_workload(const RunArgs& args, const Machine& mc, Report& report,
                       Tracer& tr);

}  // namespace perfbench
