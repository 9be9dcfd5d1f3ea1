// serve_mixed: open-loop Poisson traffic into one default-config
// GemmService.  About nine in ten requests are resident-weight inference
// calls (fp32 / bf16 / int8 in equal shares, a small shape under the
// fast-path flop cutoff and a large one above it per precision, one
// thread); the rest are cold fp64 FT requests at 384^3 on two threads.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <thread>

#include "bench.hpp"
#include "core/gemm_i8.hpp"

namespace perfbench {

using namespace ftgemm;
using serve::GemmFuture;
using serve::GemmRequest;
using serve::GemmResult;
using serve::GemmService;

namespace {

enum class Prec { kF32, kBf16, kI8, kF64 };

struct ClassSpec {
  const char* name;
  Prec prec;
  index_t m, n, k;
  int threads;
  bool resident;
  double weight;  ///< share of the traffic
};

constexpr ClassSpec kClasses[] = {
    {"f32_small", Prec::kF32, 96, 32, 128, 1, true, 0.15},
    {"f32_large", Prec::kF32, 256, 64, 256, 1, true, 0.15},
    {"bf16_small", Prec::kBf16, 96, 32, 128, 1, true, 0.15},
    {"bf16_large", Prec::kBf16, 256, 64, 256, 1, true, 0.15},
    {"i8_small", Prec::kI8, 96, 32, 128, 1, true, 0.15},
    {"i8_large", Prec::kI8, 256, 64, 256, 1, true, 0.15},
    {"f64_cold", Prec::kF64, 384, 384, 384, 2, false, 0.10},
};
constexpr int kNumClasses = int(sizeof(kClasses) / sizeof(kClasses[0]));
constexpr int kColdClass = kNumClasses - 1;

// Traffic constants, fixed for this 4-core host (see README.md): the two
// reported rates are about 1/2 and 4/5 of the highest rate the default
// config sustained there under the limit (~6000 rps); above the high rate
// the ladder climbs in 7% steps.
constexpr double kLowRps = 3000.0;
constexpr double kHighRps = 4800.0;
constexpr double kLimitMs = 10.0;  ///< p99 latency limit from due time
constexpr double kLadderStep = 1.07;
constexpr int kLadderRungs = 8;
constexpr int kSegments = 5;  ///< low/high alternations per run
/// A phase whose generator was itself this late (p99, excluding the time
/// submit() blocked it) did not send its schedule: the run is invalid.
constexpr double kGenLateLimitMs = 5.0;

constexpr int kInputs = 8;      ///< generated activations per class
constexpr int kRing = 128;      ///< output buffers per inference class
constexpr int kColdRing = 32;   ///< output buffers of the cold class
constexpr int kSampleEvery = 64;  ///< ~1/64 of requests are bit-checked
/// Latency percentiles are taken per window of this many consecutive
/// requests and reported as the median over windows (stats.hpp).
constexpr std::size_t kWindow = 1000;

const QuantParams kQp{0.02f, 0.03f, 3, -5};

std::size_t elem_bytes(Prec p) {
  switch (p) {
    case Prec::kF32: return 4;
    case Prec::kBf16: return 2;
    case Prec::kI8: return 1;
    case Prec::kF64: return 8;
  }
  return 8;
}

/// Generated operands, reference results and output buffers of one class.
struct ClassData {
  const ClassSpec* spec = nullptr;
  std::vector<std::vector<unsigned char>> a;  ///< 1 weight, or kInputs (cold)
  std::vector<std::vector<unsigned char>> b;  ///< kInputs activations
  std::vector<std::vector<double>> ref;       ///< per input, column-major
  std::vector<std::vector<unsigned char>> ring;
  std::vector<std::int64_t> ring_owner;  ///< request index using each buffer
  std::size_t ring_next = 0;
  double tol = 0.0;
  double sync_s = 0.0;  ///< median synchronous call time (traced run)

  [[nodiscard]] std::size_t c_bytes() const {
    return std::size_t(spec->m * spec->n) *
           (spec->prec == Prec::kF64 ? 8 : 4);
  }
  [[nodiscard]] const void* a_ptr(int input) const {
    return a[a.size() == 1 ? 0 : std::size_t(input)].data();
  }
};

void fill_operand(std::vector<unsigned char>& buf, Prec p, index_t count,
                  Rng& rng, std::vector<double>& values) {
  buf.assign(std::size_t(count) * elem_bytes(p), 0);
  values.resize(std::size_t(count));
  for (index_t i = 0; i < count; ++i) {
    double v = rng.uniform(-1.0, 1.0);
    switch (p) {
      case Prec::kF32: {
        const float f = float(v);
        std::memcpy(&buf[std::size_t(i) * 4], &f, 4);
        v = f;
        break;
      }
      case Prec::kBf16: {
        const bf16_t h{float(v)};
        std::memcpy(&buf[std::size_t(i) * 2], &h, 2);
        v = float(h);
        break;
      }
      case Prec::kI8: {
        const auto q = std::int8_t(int(rng.below(255)) - 127);
        std::memcpy(&buf[std::size_t(i)], &q, 1);
        v = q;
        break;
      }
      case Prec::kF64:
        std::memcpy(&buf[std::size_t(i) * 8], &v, 8);
        break;
    }
    values[std::size_t(i)] = v;
  }
}

Options class_opts(const ClassSpec& s) {
  Options o;
  o.threads = s.threads;
  o.resident_a = s.resident;
  return o;
}

GemmRequest make_request(const ClassData& d, int input, void* c,
                         bool ft = true) {
  const ClassSpec& s = *d.spec;
  const void* a = d.a_ptr(input);
  const void* b = d.b[std::size_t(input)].data();
  const Options o = class_opts(s);
  const auto nt = Trans::kNoTrans;
  const auto L = Layout::kColMajor;
  switch (s.prec) {
    case Prec::kF32:
      return serve::make_gemm_request<float>(
          ft, L, nt, nt, s.m, s.n, s.k, 1.0f, static_cast<const float*>(a),
          s.m, static_cast<const float*>(b), s.k, 0.0f,
          static_cast<float*>(c), s.m, o);
    case Prec::kBf16:
      return serve::make_gemm_request<bf16_t>(
          ft, L, nt, nt, s.m, s.n, s.k, 1.0f, static_cast<const bf16_t*>(a),
          s.m, static_cast<const bf16_t*>(b), s.k, 0.0f,
          static_cast<float*>(c), s.m, o);
    case Prec::kI8:
      return serve::make_gemm_request_i8(
          ft, L, nt, nt, s.m, s.n, s.k, 1.0f,
          static_cast<const std::int8_t*>(a), s.m,
          static_cast<const std::int8_t*>(b), s.k, 0.0f,
          static_cast<float*>(c), s.m, kQp, o);
    case Prec::kF64:
      break;
  }
  return serve::make_gemm_request<double>(
      ft, L, nt, nt, s.m, s.n, s.k, 1.0, static_cast<const double*>(a), s.m,
      static_cast<const double*>(b), s.k, 0.0, static_cast<double*>(c), s.m,
      o);
}

/// The synchronous entry point with the arguments make_request carries.
FtReport sync_call(const ClassData& d, int input, void* c, Options o) {
  const ClassSpec& s = *d.spec;
  const void* a = d.a_ptr(input);
  const void* b = d.b[std::size_t(input)].data();
  const auto nt = Trans::kNoTrans;
  const auto L = Layout::kColMajor;
  switch (s.prec) {
    case Prec::kF32:
      return ft_sgemm(L, nt, nt, s.m, s.n, s.k, 1.0f,
                      static_cast<const float*>(a), s.m,
                      static_cast<const float*>(b), s.k, 0.0f,
                      static_cast<float*>(c), s.m, o);
    case Prec::kBf16:
      return ft_gemm_bf16(L, nt, nt, s.m, s.n, s.k, 1.0f,
                          static_cast<const bf16_t*>(a), s.m,
                          static_cast<const bf16_t*>(b), s.k, 0.0f,
                          static_cast<float*>(c), s.m, o);
    case Prec::kI8:
      return ft_gemm_i8(L, nt, nt, s.m, s.n, s.k, 1.0f,
                        static_cast<const std::int8_t*>(a), s.m,
                        static_cast<const std::int8_t*>(b), s.k, 0.0f,
                        static_cast<float*>(c), s.m, kQp, o);
    case Prec::kF64:
      break;
  }
  return ft_dgemm(L, nt, nt, s.m, s.n, s.k, 1.0, static_cast<const double*>(a),
                  s.m, static_cast<const double*>(b), s.k, 0.0,
                  static_cast<double*>(c), s.m, o);
}

/// Largest |C - reference| of a delivered output.
double ref_error(const ClassData& d, int input, const void* c) {
  const std::size_t count = std::size_t(d.spec->m * d.spec->n);
  const std::vector<double>& ref = d.ref[std::size_t(input)];
  double err = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    double v;
    if (d.spec->prec == Prec::kF64) {
      std::memcpy(&v, static_cast<const unsigned char*>(c) + i * 8, 8);
    } else {
      float f;
      std::memcpy(&f, static_cast<const unsigned char*>(c) + i * 4, 4);
      v = f;
    }
    err = std::max(err, std::abs(v - ref[i]));
  }
  return err;
}

ClassData make_class(const ClassSpec& s, std::uint64_t seed) {
  ClassData d;
  d.spec = &s;
  Rng rng(seed);
  const int na = s.resident ? 1 : kInputs;
  std::vector<std::vector<double>> av(static_cast<std::size_t>(na));
  std::vector<std::vector<double>> bv(kInputs);
  d.a.resize(std::size_t(na));
  d.b.resize(kInputs);
  for (int i = 0; i < na; ++i)
    fill_operand(d.a[std::size_t(i)], s.prec, s.m * s.k, rng,
                 av[std::size_t(i)]);
  for (int i = 0; i < kInputs; ++i)
    fill_operand(d.b[std::size_t(i)], s.prec, s.k * s.n, rng,
                 bv[std::size_t(i)]);

  // Reference: the baseline GEMM in fp64 on the exactly representable
  // operand values (the int8 path's zero points and scales applied here).
  double scale = 1.0;
  if (s.prec == Prec::kI8) {
    for (auto& m : av) for (double& v : m) v -= kQp.zero_a;
    for (auto& m : bv) for (double& v : m) v -= kQp.zero_b;
    scale = double(kQp.scale_a) * double(kQp.scale_b);
  }
  d.ref.resize(kInputs);
  for (int i = 0; i < kInputs; ++i) {
    std::vector<double>& r = d.ref[std::size_t(i)];
    r.assign(std::size_t(s.m * s.n), 0.0);
    baseline::blocked_dgemm(Trans::kNoTrans, Trans::kNoTrans, s.m, s.n, s.k,
                            scale, av[std::size_t(na == 1 ? 0 : i)].data(),
                            s.m, bv[std::size_t(i)].data(), s.k, 0.0, r.data(),
                            s.m);
  }
  // Verifier threshold model: k * 512 * eps of the compute type, times the
  // operand magnitudes; int8 sums are exact up to the final fp32 rounding.
  const double eps = s.prec == Prec::kF64 ? 0x1.0p-52 : 0x1.0p-23;
  if (s.prec == Prec::kI8) {
    d.tol = 128.0 * 128.0 * double(s.k) * scale * 0x1.0p-23 * 4.0;
  } else {
    d.tol = double(s.k) * 512.0 * eps;
  }
  d.ring.assign(std::size_t(s.resident ? kRing : kColdRing),
                std::vector<unsigned char>(d.c_bytes(), 0));
  d.ring_owner.assign(d.ring.size(), -1);
  return d;
}

struct Phase {
  double rate = 0.0;
  std::size_t n = 0;
  std::vector<double> lat_ms;     ///< from due time; failures = +inf
  std::vector<double> submit_us;  ///< time inside submit()
  std::vector<double> late_ms;    ///< generator's own lateness
  std::vector<double> overhead_ms;
  std::vector<double> idle_workers;
  std::uint64_t failed = 0;
  std::size_t backlog_end = 0;
  double active_s = 0.0;  ///< first due time to last completion, summed
  serve::ServiceStats before, after;

  [[nodiscard]] double achieved_rps() const { return double(n) / active_s; }
  [[nodiscard]] double p50() const {
    return windowed_quantile(lat_ms, kWindow, 0.5);
  }
  [[nodiscard]] double p99() const {
    return windowed_quantile(lat_ms, kWindow, 0.99);
  }
  [[nodiscard]] bool valid() const {
    return tail(late_ms, 99).value <= kGenLateLimitMs;
  }
  [[nodiscard]] bool sustained() const {
    return valid() && failed == 0 && p99() <= kLimitMs &&
           double(backlog_end) <= rate * kLimitMs * 1e-3;
  }
};

class ServeBench {
 public:
  explicit ServeBench(std::uint64_t seed) : seed_(seed) {
    for (int c = 0; c < kNumClasses; ++c)
      data_.push_back(make_class(kClasses[c], seed * 31 + std::uint64_t(c)));
  }

  /// Fresh service + resident weights + one cold request per class.
  /// Returns {total seconds, seconds spent encoding resident weights}.
  std::pair<double, double> setup(Report& report) {
    svc_.reset();
    residents_.clear();
    clear_process_caches();
    const std::int64_t t0 = now_ns();
    svc_ = std::make_unique<GemmService>();
    const std::int64_t te = now_ns();
    for (ClassData& d : data_) {
      const ClassSpec& s = *d.spec;
      if (!s.resident) continue;
      const Options o = class_opts(s);
      const auto nt = Trans::kNoTrans;
      switch (s.prec) {
        case Prec::kF32:
          residents_.push_back(make_resident_a<float>(
              nt, nt, s.m, s.n, s.k, 1.0f,
              static_cast<const float*>(d.a_ptr(0)), s.m, o));
          break;
        case Prec::kBf16:
          residents_.push_back(make_resident_a<bf16_t, float>(
              nt, nt, s.m, s.n, s.k, 1.0f,
              static_cast<const bf16_t*>(d.a_ptr(0)), s.m, o));
          break;
        case Prec::kI8:
          residents_.push_back(make_resident_a<std::int8_t, std::int32_t>(
              nt, nt, s.m, s.n, s.k, 1,
              static_cast<const std::int8_t*>(d.a_ptr(0)), s.m, o));
          break;
        case Prec::kF64:
          break;
      }
    }
    const std::int64_t te1 = now_ns();
    for (ClassData& d : data_) {
      const GemmResult res =
          svc_->submit(make_request(d, 0, d.ring[0].data())).wait();
      report.attempt();
      check(d, 0, d.ring[0].data(), res, report);
    }
    const std::int64_t t1 = now_ns();
    return {double(t1 - t0) * 1e-9, double(te1 - te) * 1e-9};
  }

  /// Result check of one delivered request against the baseline.
  void check(const ClassData& d, int input, const void* c,
             const GemmResult& res, Report& report) const {
    if (!res.ok()) {
      report.fail(std::string(d.spec->name) + " request not ok");
      return;
    }
    const double err = ref_error(d, input, c);
    if (!(err <= d.tol))
      report.fail(std::string(d.spec->name) +
                  " result differs from the baseline by " +
                  std::to_string(err));
  }

  /// Median synchronous call time per class (warm, resident weights hit).
  void measure_sync(Tracer& tr, Report& r) {
    for (ClassData& d : data_) {
      const std::string span = std::string("core.sync.") + d.spec->name;
      std::vector<unsigned char> c(d.c_bytes());
      const int reps = d.spec->resident ? 300 : 60;
      for (int i = 0; i < reps; ++i)
        tr.time(span, [&] { (void)sync_call(d, i % kInputs, c.data(),
                                            class_opts(*d.spec)); });
      d.sync_s = tr.median_s(span);
      r.add(std::string("core.sync_us.") + d.spec->name, d.sync_s * 1e6, "us",
            "median of " + std::to_string(reps));
    }
  }

  /// Resident hit with vs without CHECK_BEFORE, per inference class.
  double measure_resident_verify(Tracer& tr) {
    std::vector<double> diffs;
    for (ClassData& d : data_) {
      if (!d.spec->resident) continue;
      std::vector<unsigned char> c(d.c_bytes());
      const std::string name = d.spec->name;
      const std::string on = "core.resident_verify." + name;
      const std::string off = "core.resident_noverify." + name;
      Options o = class_opts(*d.spec);
      for (int i = 0; i < 300; ++i) {
        o.resident_verify = (i % 2) == 0;
        tr.time(o.resident_verify ? on : off,
                [&] { (void)sync_call(d, i % kInputs, c.data(), o); });
      }
      diffs.push_back(tr.median_s(on) - tr.median_s(off));
    }
    double sum = 0.0;
    for (double v : diffs) sum += v;
    return sum / double(diffs.size());
  }

  /// One open-loop segment at `rate` for `seconds`, appended to `ph`;
  /// every response is checked, a seeded sample of them bit for bit
  /// against the synchronous entry point.
  void run(double rate, double seconds, std::uint64_t phase_id, Tracer* tr,
           Report& report, Fnv& schedule_hash, Phase& ph) {
    std::vector<double> weights;
    for (const ClassSpec& s : kClasses) weights.push_back(s.weight);
    const std::vector<Arrival> sched = poisson_schedule(
        seed_ * 1000003 + phase_id, rate, seconds, weights, kInputs);
    hash_schedule(schedule_hash, sched);
    const std::size_t n = sched.size();

    if (ph.n == 0) ph.before = svc_->stats();
    ph.rate = rate;
    ph.n += n;
    // Completion times, written by whichever thread settles each request.
    std::unique_ptr<std::atomic<std::int64_t>[]> done_ns(
        new std::atomic<std::int64_t>[n]());
    std::vector<GemmFuture> futs(n);
    std::vector<std::int64_t> due(n);
    std::vector<std::uint32_t> submit_span(n, 0);
    // Sampled requests write to buffers of their own, kept for the check.
    Rng pick(seed_ ^ (phase_id * 0x9e37ull));
    std::vector<std::vector<unsigned char>> sample_c(n);
    for (std::size_t i = 0; i < n; ++i)
      if (pick.below(kSampleEvery) == 0)
        sample_c[i].assign(data_[std::size_t(sched[i].cls)].c_bytes(), 0);
    for (ClassData& d : data_)
      std::fill(d.ring_owner.begin(), d.ring_owner.end(), -1);

    const std::int64_t t0 = now_ns() + 2000000;
    std::int64_t prev_end = t0;
    for (std::size_t i = 0; i < n; ++i) {
      ClassData& d = data_[std::size_t(sched[i].cls)];
      due[i] = t0 + sched[i].due_ns;
      if (now_ns() < due[i])
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(due[i])));
      const std::int64_t woke = now_ns();
      ph.late_ms.push_back(double(woke - std::max(due[i], prev_end)) * 1e-6);
      void* c;
      if (!sample_c[i].empty()) {
        c = sample_c[i].data();
      } else {
        // Reuse an output buffer only once its previous request settled.
        const std::size_t slot = d.ring_next++ % d.ring.size();
        const std::int64_t owner = d.ring_owner[slot];
        if (owner >= 0) futs[std::size_t(owner)].wait();
        d.ring_owner[slot] = std::int64_t(i);
        c = d.ring[slot].data();
      }
      const GemmRequest req = make_request(d, sched[i].input, c);
      const std::int64_t start = now_ns();
      futs[i] = svc_->submit(req);
      const std::int64_t end = now_ns();
      std::atomic<std::int64_t>* done = &done_ns[i];
      futs[i].then([done](const GemmResult&) {
        done->store(now_ns(), std::memory_order_release);
      });
      ph.submit_us.push_back(double(end - start) * 1e-3);
      if (tr != nullptr)
        submit_span[i] = tr->add("serve.submit", start, end, 0, i);
      if ((i & 15) == 0)
        ph.idle_workers.push_back(runtime::pool_idle_worker_count());
      prev_end = end;
    }
    std::size_t backlog = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (done_ns[i].load(std::memory_order_acquire) == 0) ++backlog;
    ph.backlog_end = std::max(ph.backlog_end, backlog);
    std::int64_t last = t0;
    for (std::size_t i = 0; i < n; ++i) {
      const GemmResult res = futs[i].wait();
      // The continuation may still be running when wait() returns.
      while (done_ns[i].load(std::memory_order_acquire) == 0)
        std::this_thread::yield();
      const std::int64_t done = done_ns[i].load();
      last = std::max(last, done);
      const ClassData& d = data_[std::size_t(sched[i].cls)];
      report.attempt();
      double lat = double(done - due[i]) * 1e-6;
      if (!res.ok()) {
        ++ph.failed;
        report.fail(std::string(d.spec->name) + " request not ok");
        lat = HUGE_VAL;
      }
      ph.lat_ms.push_back(lat);
      ph.overhead_ms.push_back(lat - d.sync_s * 1e3);
      if (tr != nullptr)
        tr->add("serve.request", due[i], done, submit_span[i], i);
    }
    ph.active_s += double(last - t0) * 1e-9;
    ph.after = svc_->stats();

    // Correctness of the sample, outside the timed window.
    for (std::size_t i = 0; i < n; ++i) {
      if (sample_c[i].empty()) continue;
      const ClassData& d = data_[std::size_t(sched[i].cls)];
      check(d, sched[i].input, sample_c[i].data(), futs[i].wait(), report);
      std::vector<unsigned char> sync_c(d.c_bytes(), 0);
      const FtReport rep =
          sync_call(d, sched[i].input, sync_c.data(), class_opts(*d.spec));
      report.attempt();
      if (!rep.clean() ||
          std::memcmp(sync_c.data(), sample_c[i].data(), sync_c.size()) != 0)
        report.fail(std::string(d.spec->name) +
                    " served result is not bit-identical to the sync call");
    }
  }

  /// One request of class `cls` through the service, waited for: its
  /// wall time from submit to completion; the result is checked.
  double served_call(int cls, int input, bool ft, Report& report) {
    ClassData& d = data_[std::size_t(cls)];
    void* c = d.ring[0].data();
    const std::int64_t t0 = now_ns();
    const GemmResult res = svc_->submit(make_request(d, input, c, ft)).wait();
    const double s = double(now_ns() - t0) * 1e-9;
    report.attempt();
    check(d, input, c, res, report);
    return s;
  }

  GemmService& service() { return *svc_; }
  ClassData& cls(int c) { return data_[std::size_t(c)]; }

 private:
  std::uint64_t seed_;
  std::vector<ClassData> data_;
  std::vector<ResidentOperand> residents_;
  std::unique_ptr<GemmService> svc_;
};

/// Hits and misses summed over the process caches of every precision the
/// mix uses (the operand caches of the three resident precisions, the plan
/// caches of all four).
struct CacheCounts {
  double hits = 0.0, misses = 0.0;
};

template <typename S, typename C = S>
void add_counts(CacheCounts& plans, CacheCounts& operands, bool resident) {
  auto& cache = process_context_cache<S, C>();
  plans.hits += double(cache.plan_hits());
  plans.misses += double(cache.plan_misses());
  if (!resident) return;
  const OperandCacheStats st = cache.operands().stats();
  operands.hits += double(st.hits);
  operands.misses += double(st.misses);
}

std::pair<CacheCounts, CacheCounts> cache_counts() {
  CacheCounts plans, operands;
  add_counts<float>(plans, operands, true);
  add_counts<bf16_t, float>(plans, operands, true);
  add_counts<std::int8_t, std::int32_t>(plans, operands, true);
  add_counts<double>(plans, operands, false);
  return {plans, operands};
}

double hit_ratio(const CacheCounts& before, const CacheCounts& after) {
  const double hits = after.hits - before.hits;
  const double misses = after.misses - before.misses;
  return hits / std::max(1.0, hits + misses);
}

void print_phase(const char* name, const Phase& p) {
  std::printf("phase %-8s rate=%.0f n=%zu achieved=%.1f p50=%.3fms "
              "p99=%.3fms (pooled %.3fms) gen_late_p99=%.3fms "
              "backlog_end=%zu failed=%llu %s%s\n",
              name, p.rate, p.n, p.achieved_rps(), p.p50(), p.p99(),
              quantile(p.lat_ms, 0.99), tail(p.late_ms, 99).value,
              p.backlog_end, static_cast<unsigned long long>(p.failed),
              p.valid() ? "valid" : "INVALID",
              p.sustained() ? " sustained" : "");
}

}  // namespace

int run_serve_workload(const RunArgs& args, const Machine& mc, Report& r,
                       Tracer& tr) {
  ServeBench sb(args.seed);
  for (const ClassSpec& s : kClasses) {
    Options o;
    o.threads = s.threads;
    bool fast = false;
    switch (s.prec) {
      case Prec::kF32:
        fast = build_plan<float>(Trans::kNoTrans, Trans::kNoTrans, s.m, s.n,
                                 s.k, o, true).fast_path;
        break;
      case Prec::kBf16:
        fast = build_plan<bf16_t, float>(Trans::kNoTrans, Trans::kNoTrans,
                                         s.m, s.n, s.k, o, true).fast_path;
        break;
      case Prec::kI8:
        fast = build_plan<std::int8_t, std::int32_t>(
                   Trans::kNoTrans, Trans::kNoTrans, s.m, s.n, s.k, o, true)
                   .fast_path;
        break;
      case Prec::kF64:
        fast = build_plan<double>(Trans::kNoTrans, Trans::kNoTrans, s.m, s.n,
                                  s.k, o, true).fast_path;
        break;
    }
    std::printf("class %-10s %lldx%lldx%lld nt=%d resident=%d share=%.2f "
                "executor=%s\n",
                s.name, static_cast<long long>(s.m),
                static_cast<long long>(s.n), static_cast<long long>(s.k),
                s.threads, int(s.resident), s.weight,
                fast ? "small" : "general");
  }
  std::printf("traffic: low=%.0f rps high=%.0f rps limit p99<=%.1f ms "
              "ladder=low,high,high*%.2f^i (i<=%d)\n",
              kLowRps, kHighRps, kLimitMs, kLadderStep, kLadderRungs);

  Fnv sched_hash;
  const std::size_t setups = tr.on() ? 1 : 5;
  std::vector<double> setup_s, encode_s;
  for (std::size_t i = 0; i < setups; ++i) {
    const auto [total, enc] = sb.setup(r);
    setup_s.push_back(total);
    encode_s.push_back(enc);
  }
  std::printf("service: default config, shards=%d\n", sb.service().shards());

  const double S = args.seconds;
  const ClassSpec& cold = kClasses[kColdClass];
  if (!tr.on()) {
    // End to end: the cold fp64 class through the service, one client,
    // Ori and FT requests alternating (order flipped every pair).  The
    // open-loop latencies are per-layer metrics of the traced run: on a
    // shared host they spread too far between runs for a bound.
    std::vector<double> ft_s, ori_s;
    const std::int64_t end = now_ns() + std::int64_t(S * 1e9);
    for (std::uint64_t p = 0; now_ns() < end; ++p) {
      const int input = int(p % kInputs);
      double t[2];
      for (int side = 0; side < 2; ++side) {
        const bool ft = (side == 0) == (p % 2 == 1);
        t[ft] = sb.served_call(kColdClass, input, ft, r);
      }
      ori_s.push_back(t[0]);
      ft_s.push_back(t[1]);
    }
    report_gemm_metrics(ft_s, ori_s, gflop(cold.m, cold.n, cold.k),
                        cold.threads, mc, r);
    r.add("setup_s", quantile(setup_s, 0.75), "s",
          "upper quartile of 5: service, resident weights, first call per "
          "class");
    return 0;
  }

  // Traced run: the per-class synchronous calls the service is measured
  // against, then open-loop traffic, then the layers' own functions.
  r.add("core.resident_encode_ms", median(encode_s) * 1e3, "ms",
        "all resident weights of the mix");
  sb.measure_sync(tr, r);
  r.add("core.resident_verify_us", sb.measure_resident_verify(tr) * 1e6, "us",
        "hit with minus without CHECK_BEFORE, mean over classes");

  // Tracing overhead: the same low-rate schedule without and with spans.
  Phase off, on;
  sb.run(kLowRps, 0.05 * S, 1, nullptr, r, sched_hash, off);
  sb.run(kLowRps, 0.05 * S, 1, &tr, r, sched_hash, on);

  // Low and high alternate in short segments, so both rates see the same
  // mix of quiet and contended seconds on a shared host.
  const auto [plans0, operands0] = cache_counts();
  Phase low, high;
  for (int k = 0; k < kSegments; ++k) {
    sb.run(kLowRps, 0.2 * S / kSegments, 10 + 2 * std::uint64_t(k), &tr, r,
           sched_hash, low);
    sb.run(kHighRps, 0.2 * S / kSegments, 11 + 2 * std::uint64_t(k), &tr, r,
           sched_hash, high);
  }
  const auto [plans1, operands1] = cache_counts();
  print_phase("low", low);
  print_phase("high", high);
  if (!low.valid() || !high.valid()) {
    std::printf("INVALID RUN: the generator fell behind its schedule "
                "(p99 own lateness > %.1f ms)\n", kGenLateLimitMs);
    return 3;
  }
  // The rate ladder is low, high, then high x step^i: climb until a rung
  // misses the limit.
  double sustained = 0.0;
  if (low.sustained()) sustained = low.achieved_rps();
  if (low.sustained() && high.sustained()) {
    sustained = high.achieved_rps();
    double rate = kHighRps;
    for (int i = 0; i < kLadderRungs; ++i) {
      rate *= kLadderStep;
      Phase p;
      sb.run(rate, 0.06 * S, 100 + std::uint64_t(i), nullptr, r, sched_hash,
             p);
      print_phase("ladder", p);
      if (!p.sustained()) break;
      sustained = p.achieved_rps();
    }
  }
  std::printf("schedule_hash=%016llx\n",
              static_cast<unsigned long long>(sched_hash.value()));

  const std::string per_window =
      "median over " + std::to_string(kWindow) + "-request windows, n=";
  r.add("serve.p50_ms_low", low.p50(), "ms",
        per_window + std::to_string(low.n));
  r.add("serve.p99_ms_low", low.p99(), "ms",
        per_window + std::to_string(low.n));
  r.add("serve.p50_ms_high", high.p50(), "ms",
        per_window + std::to_string(high.n));
  r.add("serve.p99_ms_high", high.p99(), "ms",
        per_window + std::to_string(high.n));
  r.add("serve.sustained_rps", sustained, "1/s",
        "achieved rate at the highest sustained ladder rung");
  r.add("core.plan_hit_ratio", hit_ratio(plans0, plans1), "ratio");
  r.add("core.resident_hit_ratio", hit_ratio(operands0, operands1), "ratio");
  const double sub = double(high.after.submitted - high.before.submitted);
  const Tail su = tail(high.submit_us, 99), ov = tail(high.overhead_ms, 99);
  r.add("serve.submit_us_p50", median(high.submit_us), "us", "high rate");
  r.add("serve.submit_us_p99", su.value, "us", tail_note(su));
  r.add("serve.overhead_ms_p50", median(high.overhead_ms), "ms",
        "latency minus sync call of the same class");
  r.add("serve.overhead_ms_p99", ov.value, "ms", tail_note(ov));
  r.add("serve.inline_frac",
        double(high.after.inline_executed - high.before.inline_executed) / sub,
        "ratio");
  r.add("serve.coalesced_frac",
        double(high.after.coalesced_members - high.before.coalesced_members) /
            sub,
        "ratio");
  r.add("serve.steal_frac",
        double(high.after.stolen_requests - high.before.stolen_requests) / sub,
        "ratio");
  r.add("serve.peak_queue_depth", double(high.after.peak_queue_depth), "count",
        "whole run");
  r.add("serve.peak_inflight", double(high.after.peak_inflight), "count",
        "whole run");
  r.add("serve.rejected", double(high.after.rejected), "count", "whole run");
  r.add("serve.backlog_end", double(high.backlog_end), "count",
        "most outstanding when a high-rate segment's schedule ended");
  const Tail gl = tail(high.late_ms, 99);
  r.add("serve.gen_late_ms_p99", gl.value, "ms", tail_note(gl));
  r.add("runtime.pool_idle_workers", median(high.idle_workers), "count",
        "median, sampled every 16 submits");
  r.add("trace.overhead_pct", 100.0 * (on.p50() / off.p50() - 1.0), "%",
        "traced vs untraced p50 latency at the low rate");

  const ClassSpec& large = kClasses[1];
  measure_layers({{cold.m, cold.n, cold.k}, cold.threads,
                  {large.m, large.n, large.k}},
                 0, [&] { return sb.served_call(kColdClass, 0, true, r); }, mc,
                 tr, r);
  return 0;
}

}  // namespace perfbench
