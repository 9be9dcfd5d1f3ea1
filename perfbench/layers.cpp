// Per-layer measurements: each layer's public function, timed from outside
// the library on the plan shapes of the workload's own problem.  Every
// timed invocation is one span; rates are derived from the spans' median
// durations.  Bytes are computed from the operand sizes, not measured (the
// host has no PMU).
#include <algorithm>
#include <atomic>
#include <thread>

#include "abft/verifier.hpp"
#include "bench.hpp"
#include "kernels/macro_kernel.hpp"
#include "runtime/team.hpp"
#include "util/aligned_buffer.hpp"

namespace perfbench {

using namespace ftgemm;

namespace {

template <typename T>
AlignedBuffer<T> random_buffer(std::size_t count, std::uint64_t seed) {
  AlignedBuffer<T> buf;
  buf.ensure(count);
  Rng rng(seed);
  for (std::size_t i = 0; i < count; ++i) buf.data()[i] = T(rng.uniform(-1, 1));
  return buf;
}

template <typename T>
AlignedBuffer<T> zero_buffer(std::size_t count) {
  AlignedBuffer<T> buf;
  buf.ensure(count);
  std::fill(buf.data(), buf.data() + count, T(0));
  return buf;
}

index_t round_up(index_t v, index_t to) { return (v + to - 1) / to * to; }

/// Run fn `reps` times as spans named `name`; returns the median seconds.
template <typename F>
double timed(Tracer& tr, const std::string& name, int reps, F&& fn) {
  for (int r = 0; r < reps; ++r) tr.time(name, fn);
  return tr.median_s(name);
}

double gbs(double bytes, double seconds) { return bytes / seconds * 1e-9; }

/// pack_a_ft of one plan block for a narrow storage type; returns GB/s.
template <typename S>
double narrow_pack_gbs(const ShapeSpec& s, Tracer& tr, const char* name) {
  Options opts;
  opts.threads = 1;
  const auto plan = build_plan<S, float>(Trans::kNoTrans, Trans::kNoTrans,
                                         s.m, s.n, s.k, opts, true);
  const index_t mc = std::min(plan.blocking.mc, s.m);
  const index_t kc = std::min(plan.blocking.kc, s.k);
  const index_t mr = plan.kernels.mr;
  AlignedBuffer<S> a;
  a.ensure(std::size_t(s.m * s.k));
  Rng rng(11);
  for (index_t i = 0; i < s.m * s.k; ++i)
    a.data()[i] = S(float(rng.uniform(-1, 1)));
  auto dst = zero_buffer<float>(std::size_t(round_up(mc, mr) * kc));
  auto bc = random_buffer<float>(std::size_t(kc), 12);
  auto cc = zero_buffer<float>(std::size_t(mc));
  const OperandView<S> view{a.data(), s.m, false};
  const double t = timed(tr, name, 400, [&] {
    plan.kernels.pack.pack_a_ft(view, 0, 0, mc, kc, mr, 1.0f, dst.data(),
                                bc.data(), cc.data());
  });
  return gbs(double(mc * kc) * double(sizeof(S) + sizeof(float)), t);
}

double i8_pack_gbs(const ShapeSpec& s, Tracer& tr) {
  Options opts;
  opts.threads = 1;
  const auto plan = build_plan<std::int8_t, std::int32_t>(
      Trans::kNoTrans, Trans::kNoTrans, s.m, s.n, s.k, opts, true);
  const index_t mc = std::min(plan.blocking.mc, s.m);
  const index_t kc = std::min(plan.blocking.kc, s.k);
  const index_t mr = plan.kernels.mr;
  AlignedBuffer<std::int8_t> a;
  a.ensure(std::size_t(s.m * s.k));
  Rng rng(13);
  for (index_t i = 0; i < s.m * s.k; ++i)
    a.data()[i] = std::int8_t(int(rng.below(255)) - 127);
  auto dst = zero_buffer<std::uint8_t>(std::size_t(round_up(mc, mr) *
                                                   round_up(kc, 4)));
  auto arow = zero_buffer<std::int32_t>(std::size_t(mc));
  auto bc = zero_buffer<std::int32_t>(std::size_t(kc));
  auto cc = zero_buffer<std::int64_t>(std::size_t(mc));
  for (index_t i = 0; i < kc; ++i) bc.data()[i] = std::int32_t(rng.below(64));
  const OperandView<std::int8_t> view{a.data(), s.m, false};
  const double t = timed(tr, "kernels.pack_a_ft.i8", 400, [&] {
    plan.kernels.pack.pack_a_ft(view, 0, 0, mc, kc, mr, dst.data(),
                                arow.data(), bc.data(), cc.data());
  });
  return gbs(double(mc * kc) * 2.0, t);
}

}  // namespace

void measure_layers(const LayerShapes& ls, int errors_per_call,
                    const std::function<double()>& ft_call,
                    const Machine& mc, Tracer& tr, Report& r) {
  const ShapeSpec& s = ls.fp64;
  Options opts;
  opts.threads = ls.threads;

  // core: planning.
  GemmPlan<double> plan;
  const double plan_s = timed(tr, "core.build_plan", 400, [&] {
    plan = build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, s.m, s.n,
                              s.k, opts, true);
  });
  r.add("core.build_plan_us", plan_s * 1e6, "us", "median of 400");

  const KernelSet<double>& ks = plan.kernels;
  const index_t mcb = std::min(plan.blocking.mc, s.m);
  const index_t ncb = std::min(plan.blocking.nc, s.n);
  const index_t kcb = std::min(plan.blocking.kc, s.k);
  const index_t mr = ks.mr, nr = ks.nr;

  auto a = random_buffer<double>(std::size_t(s.m * s.k), 1);
  auto b = random_buffer<double>(std::size_t(s.k * s.n), 2);
  auto c = random_buffer<double>(std::size_t(s.m * s.n), 3);
  const OperandView<double> av{a.data(), s.m, false};
  const OperandView<double> bv{b.data(), s.k, false};
  auto at = zero_buffer<double>(std::size_t(round_up(mcb, mr) * kcb));
  auto bt = zero_buffer<double>(std::size_t(round_up(ncb, nr) * kcb));
  auto bc = zero_buffer<double>(std::size_t(kcb));
  auto ar = random_buffer<double>(std::size_t(std::max(kcb, s.k)), 4);
  auto cc = zero_buffer<double>(std::size_t(std::max(mcb, s.m)));
  auto cr = zero_buffer<double>(std::size_t(s.n) * std::size_t(ks.cr_lanes));
  auto ct = zero_buffer<double>(std::size_t(mcb * ncb));

  // kernels: pack + encode of one plan block, then the macro kernel on it.
  const double pack_b_s = timed(tr, "kernels.pack_b_ft", 100, [&] {
    ks.pack.pack_b_ft(bv, 0, 0, kcb, ncb, nr, bt.data(), ar.data(), cr.data());
  });
  const double reduce_s = timed(tr, "kernels.reduce_bc", 100, [&] {
    ks.pack.reduce_bc(bt.data(), kcb, ncb, nr, 0, kcb, bc.data(), 0.0);
  });
  const double pack_a_s = timed(tr, "kernels.pack_a_ft", 200, [&] {
    ks.pack.pack_a_ft(av, 0, 0, mcb, kcb, mr, 1.0, at.data(), bc.data(),
                      cc.data());
  });
  // The macro kernel is timed interleaved with whole FT calls, so the
  // share it takes of a call compares the two under the same host state.
  const double tile_gflop = gflop(mcb, ncb, kcb);
  std::vector<double> call_samples;
  for (int i = 0; i < 15; ++i) {
    call_samples.push_back(ft_call());
    tr.time("kernels.run_macro_block.ft", [&] {
      run_macro_block<double, true>(ks, mcb, ncb, kcb, at.data(), bt.data(),
                                    ct.data(), mcb, cr.data(), cc.data());
    });
    tr.time("kernels.run_macro_block.ori", [&] {
      run_macro_block<double, false>(ks, mcb, ncb, kcb, at.data(), bt.data(),
                                     ct.data(), mcb, nullptr, nullptr);
    });
  }
  const double call_s = median(call_samples);
  const double macro_ft_s = tr.median_s("kernels.run_macro_block.ft");
  const double macro_ori_s = tr.median_s("kernels.run_macro_block.ori");
  const double macro_ft = tile_gflop / macro_ft_s;
  r.add("kernels.macro_ft_gflops", macro_ft, "GFLOP/s",
        "one " + std::to_string(mcb) + "x" + std::to_string(ncb) + "x" +
            std::to_string(kcb) + " plan tile");
  r.add("kernels.macro_ori_gflops", tile_gflop / macro_ori_s, "GFLOP/s");
  r.add("kernels.macro_pct_peak", 100.0 * macro_ft / mc.peak_gflops_core, "%",
        "FT macro kernel over calibrated core peak");
  r.add("kernels.pack_a_ft_gbs", gbs(double(mcb * kcb) * 16.0, pack_a_s),
        "GB/s", "computed bytes: read + packed write");
  r.add("kernels.pack_b_ft_gbs", gbs(double(kcb * ncb) * 16.0, pack_b_s),
        "GB/s", "computed bytes: read + packed write");
  r.add("kernels.reduce_bc_gbs", gbs(double(kcb * ncb) * 8.0, reduce_s),
        "GB/s", "computed bytes: packed B read");
  r.add("kernels.pack_a_ft_bf16_gbs",
        narrow_pack_gbs<bf16_t>(ls.narrow, tr, "kernels.pack_a_ft.bf16"),
        "GB/s", "computed bytes: bf16 read + fp32 packed write");
  r.add("kernels.pack_a_ft_i8_gbs", i8_pack_gbs(ls.narrow, tr), "GB/s",
        "computed bytes: s8 read + u8 packed write");
  r.add("kernels.flops_per_byte",
        2.0 * double(mcb * ncb * kcb) /
            (8.0 * double(mcb * kcb + kcb * ncb + 2 * mcb * ncb)),
        "flop/B", "computed: plan tile flops / packed A + B + C r/w bytes");

  // abft: encode C and Ar over the whole problem, verify one panel, and
  // locate + correct the workload's errors per panel.
  const double enc_c_s = timed(tr, "abft.scale_encode_c", 40, [&] {
    std::fill(cc.data(), cc.data() + s.m, 0.0);
    ks.pack.scale_encode_c(c.data(), s.m, 0, s.m, s.n, 0.0, cc.data(),
                           cr.data());
  });
  const double enc_ar_s = timed(tr, "abft.encode_ar", 40, [&] {
    ks.pack.encode_ar(av, 0, s.m, s.k, 1.0, ar.data());
  });
  r.add("abft.scale_encode_c_gbs", gbs(double(s.m * s.n) * 8.0, enc_c_s),
        "GB/s", "computed bytes: C once");
  r.add("abft.encode_ar_gbs", gbs(double(s.m * s.k) * 8.0, enc_ar_s), "GB/s",
        "computed bytes: A once");

  const double tau = double(s.k) * 512.0 * 0x1.0p-52;
  auto pr = random_buffer<double>(std::size_t(s.m), 5);
  auto pc = random_buffer<double>(std::size_t(s.n), 6);
  auto rr = zero_buffer<double>(std::size_t(s.m));
  auto rc = zero_buffer<double>(std::size_t(s.n));
  std::copy(pr.data(), pr.data() + s.m, rr.data());
  std::copy(pc.data(), pc.data() + s.n, rc.data());
  std::vector<Mismatch> rows, cols;
  const double verify_s = timed(tr, "abft.verify_panel", 1000, [&] {
    rows.clear();
    cols.clear();
    find_mismatches(pr.data(), rr.data(), s.m, tau, 0, rows);
    find_mismatches(pc.data(), rc.data(), s.n, tau, 0, cols);
  });
  r.add("abft.verify_panel_us", verify_s * 1e6, "us", "clean find_mismatches");

  const index_t panels = std::max<index_t>(plan.num_panels, 1);
  const int per_panel = int((errors_per_call + panels - 1) / panels);
  Rng rng(7);
  for (int e = 0; e < per_panel; ++e) {
    const double d = (rng.uniform() < 0.5 ? -1.0 : 1.0) * rng.uniform(0.5, 1.5);
    rr.data()[rng.below(std::uint64_t(s.m))] += d;
    rc.data()[rng.below(std::uint64_t(s.n))] += d;
  }
  const double slack = tau * double(2 + 2 * per_panel);
  const double locate_s = timed(tr, "abft.locate_correct", 200, [&] {
    rows.clear();
    cols.clear();
    find_mismatches(pr.data(), rr.data(), s.m, tau, 0, rows);
    find_mismatches(pc.data(), rc.data(), s.n, tau, 0, cols);
    (void)solve_error_assignment(rows, cols, slack);
  });
  r.add("abft.locate_correct_us", locate_s * 1e6, "us",
        std::to_string(per_panel) + " errors per panel");

  // runtime: empty-team dispatch, barriers, and dispatch while another
  // two-member team is running.
  constexpr int kBarriers = 64;
  auto noop = [](runtime::TeamMember&) {};
  auto barriers = [](runtime::TeamMember& tm) {
    for (int i = 0; i < kBarriers; ++i) tm.barrier();
  };
  const double disp_s = timed(tr, "runtime.run_team.empty", 2000, [&] {
    runtime::run_team(mc.backend, 2, noop);
  });
  const double bar_s = timed(tr, "runtime.run_team.barriers", 200, [&] {
    runtime::run_team(mc.backend, 2, barriers);
  });
  r.add("runtime.dispatch_us", disp_s * 1e6, "us", "empty nt=2 team");
  r.add("runtime.barrier_us",
        std::max(0.0, bar_s - disp_s) / kBarriers * 1e6, "us",
        "per barrier, nt=2");
  std::atomic<bool> stop{false};
  std::thread other([&] {
    while (!stop.load(std::memory_order_relaxed))
      runtime::run_team(mc.backend, 2, barriers);
  });
  const double cont_s = timed(tr, "runtime.run_team.contended", 2000, [&] {
    runtime::run_team(mc.backend, 2, noop);
  });
  stop.store(true);
  other.join();
  r.add("runtime.dispatch_contended_us", cont_s * 1e6, "us",
        "while another nt=2 team runs");

  // Share of one FT call: per-invocation time x invocations the plan makes,
  // divided across the team, over the median interleaved call time.
  const double jc = double((s.n + ncb - 1) / ncb);
  const double nt = double(ls.threads);
  const double macro_share =
      gflop(s.m, s.n, s.k) / macro_ft / nt / call_s;
  const double pack_share =
      (pack_a_s * double(s.m * s.k) * jc / double(mcb * kcb) +
       (pack_b_s + reduce_s) * double(s.k * s.n) / double(kcb * ncb)) /
      nt / call_s;
  const double encode_share = (enc_c_s + enc_ar_s) / nt / call_s;
  const double verify_share =
      double(panels) * (per_panel > 0 ? locate_s : verify_s) / call_s;
  r.add("share.kernels_macro", macro_share, "ratio", "of one FT call");
  r.add("share.kernels_pack", pack_share, "ratio", "of one FT call");
  r.add("share.abft_encode", encode_share, "ratio", "of one FT call");
  r.add("share.abft_verify", verify_share, "ratio", "of one FT call");
  r.add("share.unattributed",
        1.0 - macro_share - pack_share - encode_share - verify_share, "ratio",
        "barrier waits, leases, dispatch, imbalance");
}

}  // namespace perfbench
