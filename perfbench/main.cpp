// The repository benchmark binary.
//
//   perfbench --workload <serial_ft|team_ft_faults|serve_mixed> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//             [--git-sha <sha>] [--source-hash <hash>]
//
// --trace 0 prints every end-to-end metric, --trace 1 every per-layer
// metric; the last line of standard output is the JSON result.  Exit code
// 0 = measured and every check passed, 1 = a correctness check failed,
// 2 = refused (bad arguments or an FTGEMM_* variable set), 3 = invalid
// (the open-loop generator fell behind its schedule).
#include <cstdlib>
#include <cstring>

#include "bench.hpp"

extern char** environ;

namespace perfbench {
namespace {

// The metrics of BENCHMARK.json with their units; every run prints all of
// one list.
struct MetricSpec {
  const char* name;
  const char* unit;
};

const MetricSpec kEndToEnd[] = {
    {"ft_gflops", "GFLOP/s"}, {"ori_gflops", "GFLOP/s"},
    {"ft_ori_ratio", "ratio"}, {"ft_ms_p90", "ms"},
    {"ft_pct_peak", "%"},      {"setup_s", "s"},
};

const MetricSpec kPerLayer[] = {
    {"kernels.macro_ft_gflops", "GFLOP/s"},
    {"kernels.macro_ori_gflops", "GFLOP/s"},
    {"kernels.macro_pct_peak", "%"},
    {"kernels.pack_a_ft_gbs", "GB/s"},
    {"kernels.pack_b_ft_gbs", "GB/s"},
    {"kernels.reduce_bc_gbs", "GB/s"},
    {"kernels.pack_a_ft_bf16_gbs", "GB/s"},
    {"kernels.pack_a_ft_i8_gbs", "GB/s"},
    {"kernels.flops_per_byte", "flop/B"},
    {"abft.scale_encode_c_gbs", "GB/s"},
    {"abft.encode_ar_gbs", "GB/s"},
    {"abft.verify_panel_us", "us"},
    {"abft.locate_correct_us", "us"},
    {"abft.corrected_per_injected", "ratio"},
    {"core.build_plan_us", "us"},
    {"core.resident_encode_ms", "ms"},
    {"core.plan_hit_ratio", "ratio"},
    {"core.resident_hit_ratio", "ratio"},
    {"core.resident_verify_us", "us"},
    {"core.sync_us.f32_small", "us"},
    {"core.sync_us.f32_large", "us"},
    {"core.sync_us.bf16_small", "us"},
    {"core.sync_us.bf16_large", "us"},
    {"core.sync_us.i8_small", "us"},
    {"core.sync_us.i8_large", "us"},
    {"core.sync_us.f64_cold", "us"},
    {"runtime.dispatch_us", "us"},
    {"runtime.barrier_us", "us"},
    {"runtime.dispatch_contended_us", "us"},
    {"runtime.pool_idle_workers", "count"},
    {"serve.p50_ms_low", "ms"},
    {"serve.p99_ms_low", "ms"},
    {"serve.p50_ms_high", "ms"},
    {"serve.p99_ms_high", "ms"},
    {"serve.sustained_rps", "1/s"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"serve.overhead_ms_p50", "ms"},
    {"serve.overhead_ms_p99", "ms"},
    {"serve.inline_frac", "ratio"},
    {"serve.coalesced_frac", "ratio"},
    {"serve.steal_frac", "ratio"},
    {"serve.peak_queue_depth", "count"},
    {"serve.peak_inflight", "count"},
    {"serve.rejected", "count"},
    {"serve.backlog_end", "count"},
    {"serve.gen_late_ms_p99", "ms"},
    {"inject.applied_per_call", "count"},
    {"inject.undelivered", "count"},
    {"share.kernels_macro", "ratio"},
    {"share.kernels_pack", "ratio"},
    {"share.abft_encode", "ratio"},
    {"share.abft_verify", "ratio"},
    {"share.unattributed", "ratio"},
    {"trace.overhead_pct", "%"},
};

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<serial_ft|team_ft_faults|serve_mixed> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>] "
               "[--git-sha <sha>] [--source-hash <hash>]\n",
               msg);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  std::string git_sha = "unknown", source_hash = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      char* end = nullptr;
      args.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') return usage("--seed takes an integer");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return usage("--trace takes 0 or 1");
      args.trace = val == "1";
    } else if (key == "--trace-out") {
      args.trace_out = val;
    } else if (key == "--git-sha") {
      git_sha = val;
    } else if (key == "--source-hash") {
      source_hash = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (args.workload.empty()) return usage("no workload");
  if (!(args.seconds > 0.0 && args.seconds <= 600.0))
    return usage("seconds out of range");

  // Config pinning: every FTGEMM_* variable changes what the library does
  // (ISA, threads, shards, blocking, caches, ECC), so none may be set.
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FTGEMM_", 7) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *e);
      return 2;
    }
  }

  Machine mc;
  mc.isa = ftgemm::select_isa();
  mc.backend = ftgemm::runtime::resolve_backend(ftgemm::RuntimeBackend::kAuto);
  mc.peak_gflops_core = calibrate_peak_gflops(mc.isa);
  const char* omp = std::getenv("OMP_NUM_THREADS");
  std::printf("provenance: git_sha=%s source_hash=%s workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              git_sha.c_str(), source_hash.c_str(), args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              int(args.trace));
  std::printf("machine: isa=%s isa_features=%s hardware_concurrency=%d "
              "team_backend=%s OMP_NUM_THREADS=%s peak_gflops_core=%.2f\n",
              std::string(ftgemm::isa_name(mc.isa)).c_str(),
              ftgemm::cpu_feature_string().c_str(),
              ftgemm::runtime::hardware_concurrency(),
              mc.backend == ftgemm::RuntimeBackend::kPool ? "pool" : "openmp",
              omp != nullptr ? omp : "unset", mc.peak_gflops_core);

  Report report;
  Tracer tracer(args.trace);
  int rc;
  if (args.workload == "serial_ft") {
    rc = run_gemm_workload(args, mc, 1024, 1, 0, report, tracer);
  } else if (args.workload == "team_ft_faults") {
    // Two errors per FT call: ~70 errors/s at this call rate, well above the
    // paper's "hundreds per minute", with locate/correct at work in most
    // calls.  From three up, one panel can hold an L of errors sharing a row
    // and a column, which the locator flags as uncorrectable (at 20 per
    // call, about 1 call in 600), and a flagged call fails the gate.
    rc = run_gemm_workload(args, mc, 1024, 2, 2, report, tracer);
  } else if (args.workload == "serve_mixed") {
    rc = run_serve_workload(args, mc, report, tracer);
  } else {
    return usage(("unknown workload " + args.workload).c_str());
  }
  if (rc != 0) return rc;

  // Layers a workload leaves idle report 0, so every run prints every name
  // of its list, in the list's order and with the list's units.
  const MetricSpec* first = args.trace ? std::begin(kPerLayer)
                                       : std::begin(kEndToEnd);
  const MetricSpec* last =
      args.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::vector<std::pair<std::string, std::string>> order;
  for (const MetricSpec* m = first; m != last; ++m) {
    if (args.trace && !report.has(m->name))
      report.add(m->name, 0.0, m->unit, "layer idle on this workload");
    order.emplace_back(m->name, m->unit);
  }
  if (!report.conform(order)) {
    std::fprintf(stderr, "perfbench: metrics do not match the metric list\n");
    return 1;
  }

  if (args.trace && !args.trace_out.empty()) {
    if (!tracer.write(args.trace_out)) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   args.trace_out.c_str());
      return 1;
    }
    std::printf("trace: %zu spans written to %s\n", tracer.size(),
                args.trace_out.c_str());
  }
  report.print();
  return report.failed() == 0 ? 0 : 1;
}
