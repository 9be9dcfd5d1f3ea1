// Workspace context: every buffer a (FT-)GEMM call needs, reusable across
// calls so steady-state invocations are allocation-free.
//
// Buffer roles mirror Fig. 1 of the paper:
//   - btilde:  the packed B panel, *shared* among all threads (lives in the
//     shared L3 on Cascade Lake),
//   - atilde:  per-thread private packed A blocks (private L2),
//   - cc/cr:   predicted checksums of C (maintained via checksum math),
//   - ccref/crref: reference checksums accumulated from computed C values,
//   - ar, bc:  operand checksums, with per-thread partials for the
//     reductions the parallel algorithm requires (Bc is reduced by every
//     member into its own private copy).
#pragma once

#include <algorithm>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "blocking/plan.hpp"
#include "core/operand_cache.hpp"
#include "core/plan.hpp"
#include "util/aligned_buffer.hpp"
#include "util/matrix.hpp"

namespace ftgemm {

template <typename StorageT, typename ComputeT = StorageT>
class GemmContext {
 public:
  using T = ComputeT;  ///< every workspace buffer is compute-precision

  /// Size all buffers for an (m, n, k) problem on `threads` threads.
  /// Grow-only: repeated calls with smaller problems reuse storage.
  void ensure(index_t m, index_t n, index_t k, const BlockingPlan& plan,
              int threads, bool ft, index_t cr_lanes = 1) {
    const auto su = [](index_t v) { return static_cast<std::size_t>(v); };
    atilde_stride_ = pad(plan.mc * plan.kc);
    atilde_.ensure(su(atilde_stride_) * su(threads));
    btilde_.ensure(su(plan.kc * plan.nc));
    if (!ft) return;
    cc_.ensure(su(m));
    ccref_.ensure(su(m));
    cr_.ensure(su(n));
    crref_.ensure(su(n));
    // Lane-strided reference partials (cr_lanes slots per column); the
    // buffer doubles as the stride-1 per-thread Cr partial during the
    // encode pass (the two uses never overlap in time).
    crref_stride_ = pad(n * cr_lanes);
    crref_part_.ensure(su(crref_stride_) * su(threads));
    ar_.ensure(su(k));
    ar_stride_ = pad(k);
    ar_part_.ensure(su(ar_stride_) * su(threads));
    bc_stride_ = pad(plan.kc);
    bc_.ensure(su(bc_stride_) * su(threads));
    bc_part_.ensure(su(bc_stride_) * su(threads));
  }

  [[nodiscard]] T* atilde(int tid) {
    return atilde_.data() + static_cast<std::size_t>(atilde_stride_) *
                                static_cast<std::size_t>(tid);
  }
  [[nodiscard]] T* btilde() { return btilde_.data(); }

  [[nodiscard]] T* cc() { return cc_.data(); }
  [[nodiscard]] T* cr() { return cr_.data(); }
  [[nodiscard]] T* ccref() { return ccref_.data(); }
  [[nodiscard]] T* crref() { return crref_.data(); }
  [[nodiscard]] T* crref_part(int tid) {
    return crref_part_.data() + static_cast<std::size_t>(crref_stride_) *
                                    static_cast<std::size_t>(tid);
  }
  [[nodiscard]] T* ar() { return ar_.data(); }
  [[nodiscard]] T* ar_part(int tid) {
    return ar_part_.data() + static_cast<std::size_t>(ar_stride_) *
                                 static_cast<std::size_t>(tid);
  }
  /// Member tid's panel column checksum Bc, private to the member: each
  /// member sums the nt packing partials itself, in rank order.
  [[nodiscard]] T* bc(int tid) {
    return bc_.data() + static_cast<std::size_t>(bc_stride_) *
                            static_cast<std::size_t>(tid);
  }
  /// Member tid's Bc partial over the B~ columns it packed.
  [[nodiscard]] T* bc_part(int tid) {
    return bc_part_.data() + static_cast<std::size_t>(bc_stride_) *
                                 static_cast<std::size_t>(tid);
  }

  /// Size all buffers for the problem a GemmPlan was built for.
  void ensure(const GemmPlan<StorageT, ComputeT>& plan) {
    ensure(plan.key.m, plan.key.n, std::max<index_t>(plan.key.k, 1),
           plan.blocking, plan.threads, plan.key.ft, plan.kernels.cr_lanes);
  }

  /// Plans this workspace's owner has built, so repeated calls of one shape
  /// skip re-planning entirely (LRU, see core/plan.hpp).
  [[nodiscard]] PlanCache<StorageT, ComputeT>& plans() { return plans_; }

 private:
  /// Pad a per-thread stride to a cache-line multiple to avoid false
  /// sharing between adjacent threads' partials.
  static index_t pad(index_t elems) {
    const index_t per_line = index_t(kCacheLineBytes / sizeof(T));
    return (elems + per_line - 1) / per_line * per_line;
  }

  AlignedBuffer<T> atilde_;
  AlignedBuffer<T> btilde_;
  AlignedBuffer<T> cc_, cr_, ccref_, crref_;
  AlignedBuffer<T> crref_part_, ar_, ar_part_, bc_, bc_part_;
  index_t atilde_stride_ = 0;
  index_t bc_stride_ = 0;
  index_t crref_stride_ = 0;
  index_t ar_stride_ = 0;
  PlanCache<StorageT, ComputeT> plans_;
};

/// Workspace of the int8 path (full specialization): the packed panels stay
/// 8-bit (A~ biased u8, B~ s8 — the bandwidth win of the path), the product
/// accumulates in a separate int32 buffer `cq` (the caller's float C is only
/// touched by the dequantize epilogue), the epilogue's zero-point correction
/// vectors (arow/bcol) are int32, and the checksums split by exactness
/// budget: predicted/reference Cc/Cr in int64, operand checksums Ar/Bc in
/// int32 (bounds in kernels/int8_types.hpp).  No ar partials exist — the
/// driver partitions the Ar encode over K, so threads write disjoint slices
/// and integer exactness makes the result order-independent.
template <>
class GemmContext<std::int8_t, std::int32_t> {
 public:
  void ensure(index_t m, index_t n, index_t k, const BlockingPlan& plan,
              int threads, bool ft) {
    const auto su = [](index_t v) { return static_cast<std::size_t>(v); };
    atilde_stride_ = pad<std::uint8_t>(i8_tile_bytes(plan.kc, plan.mc));
    atilde_.ensure(su(atilde_stride_) * su(threads));
    btilde_.ensure(su(i8_tile_bytes(plan.kc, plan.nc)));
    cq_.ensure(su(m) * su(n));
    arow_.ensure(su(m));
    bcol_.ensure(su(n));
    if (!ft) return;
    cc_.ensure(su(m));
    ccref_.ensure(su(m));
    cr_.ensure(su(n));
    crref_.ensure(su(n));
    crref_stride_ = pad<std::int64_t>(n);
    crref_part_.ensure(su(crref_stride_) * su(threads));
    ar_.ensure(su(k));
    bc_.ensure(su(plan.kc));
  }

  void ensure(const GemmPlan<std::int8_t, std::int32_t>& plan) {
    ensure(plan.key.m, plan.key.n, std::max<index_t>(plan.key.k, 1),
           plan.blocking, plan.threads, plan.key.ft);
  }

  [[nodiscard]] std::uint8_t* atilde(int tid) {
    return atilde_.data() + static_cast<std::size_t>(atilde_stride_) *
                                static_cast<std::size_t>(tid);
  }
  [[nodiscard]] std::int8_t* btilde() { return btilde_.data(); }
  [[nodiscard]] std::int32_t* cq() { return cq_.data(); }
  [[nodiscard]] std::int32_t* arow() { return arow_.data(); }
  [[nodiscard]] std::int32_t* bcol() { return bcol_.data(); }
  [[nodiscard]] std::int64_t* cc() { return cc_.data(); }
  [[nodiscard]] std::int64_t* cr() { return cr_.data(); }
  [[nodiscard]] std::int64_t* ccref() { return ccref_.data(); }
  [[nodiscard]] std::int64_t* crref() { return crref_.data(); }
  [[nodiscard]] std::int64_t* crref_part(int tid) {
    return crref_part_.data() + static_cast<std::size_t>(crref_stride_) *
                                    static_cast<std::size_t>(tid);
  }
  [[nodiscard]] std::int32_t* ar() { return ar_.data(); }
  [[nodiscard]] std::int32_t* bc() { return bc_.data(); }

  [[nodiscard]] PlanCache<std::int8_t, std::int32_t>& plans() {
    return plans_;
  }

 private:
  template <typename U>
  static index_t pad(index_t elems) {
    const index_t per_line = index_t(kCacheLineBytes / sizeof(U));
    return (elems + per_line - 1) / per_line * per_line;
  }

  AlignedBuffer<std::uint8_t> atilde_;
  AlignedBuffer<std::int8_t> btilde_;
  AlignedBuffer<std::int32_t> cq_, arow_, bcol_, ar_, bc_;
  AlignedBuffer<std::int64_t> cc_, cr_, ccref_, crref_, crref_part_;
  index_t atilde_stride_ = 0;
  index_t crref_stride_ = 0;
  PlanCache<std::int8_t, std::int32_t> plans_;
};

/// Thread-safe pool of GemmContexts plus a shared plan cache: the substrate
/// that makes concurrent application threads first-class submitters.
///
/// N serving threads calling (FT-)GEMM entry points simultaneously each
/// lease() a private workspace for the duration of one call and return it on
/// scope exit — so workspace memory scales with *concurrency*, not with the
/// number of threads that have ever called in, and a recurring shape is
/// planned once process-wide instead of once per thread.  Grow-only, like
/// the contexts it holds: a steady-state workload allocates on the first
/// call of each concurrency level and never again.  Context addresses are
/// stable (held by unique_ptr) for the lifetime of the cache.
///
/// lease() and plan() are fully thread-safe (a free-list mutex and a plan
/// mutex; both are microseconds-scale costs next to any GEMM).  The leased
/// GemmContext itself is single-owner for the lease's lifetime, exactly like
/// the per-thread contexts it replaces.
template <typename StorageT, typename ComputeT = StorageT>
class ContextCache {
 public:
  using Context = GemmContext<StorageT, ComputeT>;
  using Plan = GemmPlan<StorageT, ComputeT>;

  /// RAII workspace lease; returns the context to the free list on
  /// destruction.  Move-only.
  class Lease {
   public:
    Lease() = default;
    Lease(Context* ctx, ContextCache* owner)
        : ctx_(ctx), owner_(owner) {}
    Lease(Lease&& o) noexcept
        : ctx_(std::exchange(o.ctx_, nullptr)),
          owner_(std::exchange(o.owner_, nullptr)) {}
    Lease& operator=(Lease&& o) noexcept {
      if (this != &o) {
        release();
        ctx_ = std::exchange(o.ctx_, nullptr);
        owner_ = std::exchange(o.owner_, nullptr);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] Context& operator*() const { return *ctx_; }
    [[nodiscard]] Context* operator->() const { return ctx_; }

   private:
    void release() {
      if (owner_ != nullptr) owner_->release(ctx_);
      ctx_ = nullptr;
      owner_ = nullptr;
    }
    Context* ctx_ = nullptr;
    ContextCache* owner_ = nullptr;
  };

  /// Lease a private workspace (growing the pool if every context is
  /// currently out on loan).  Thread-safe.
  [[nodiscard]] Lease lease() {
    std::lock_guard<std::mutex> lk(m_);
    if (free_.empty()) {
      contexts_.push_back(std::make_unique<Context>());
      free_.push_back(contexts_.back().get());
    }
    Context* ctx = free_.back();
    free_.pop_back();
    ++outstanding_;
    return Lease(ctx, this);
  }

  /// Look up (building on miss) the shared plan for (shape, opts).
  /// Thread-safe; every submitter of a recurring shape gets the same
  /// immutable plan.
  [[nodiscard]] std::shared_ptr<const Plan> plan(
      Trans ta, Trans tb, index_t m, index_t n, index_t k,
      const Options& opts, bool ft) {
    // The key resolves env/topology reads *outside* the lock.  The memory
    // injector rides along so PlanCache hits expose the kPlan strike
    // surface (and verify + heal against it).
    return plan(make_plan_key(ta, tb, m, n, k, opts, ft),
                opts.memory_injector);
  }

  /// Same lookup for a pre-built key (callers that already resolved the
  /// fingerprint — the serving layer's admission path — skip the second
  /// env/topology resolution).
  [[nodiscard]] std::shared_ptr<const Plan> plan(
      const PlanKey& key, MemoryFaultInjector* mem_injector = nullptr) {
    // Stamp the storage dtype (make_plan_key is dtype-blind) so every plan
    // this typed cache hands out carries its discriminator.
    PlanKey stamped = key;
    stamped.sdtype = kStorageDtypeTag<StorageT>;
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.get_or_build(stamped, mem_injector);
  }

  /// Drop every cached plan (thread-safe; see clear_process_caches).
  void clear_plans() {
    std::lock_guard<std::mutex> lk(plan_m_);
    plans_.clear();
  }

  /// The shared resident-operand cache living beside the plan cache: every
  /// submitter of a recurring weight matrix gets the same encoded panels.
  /// Thread-safe (internally locked).
  [[nodiscard]] OperandCache<StorageT, ComputeT>& operands() { return operands_; }

  /// Drop every resident operand payload (in-flight calls holding a
  /// shared_ptr stay valid; see clear_process_caches).
  void clear_operands() { operands_.clear(); }

  [[nodiscard]] std::uint64_t plan_hits() {
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.hits();
  }
  [[nodiscard]] std::uint64_t plan_misses() {
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.misses();
  }
  [[nodiscard]] std::uint64_t plan_heals() {
    std::lock_guard<std::mutex> lk(plan_m_);
    return plans_.heals();
  }

  /// Contexts ever created / currently out on loan (diagnostics, tests).
  [[nodiscard]] int size() {
    std::lock_guard<std::mutex> lk(m_);
    return int(contexts_.size());
  }
  [[nodiscard]] int outstanding() {
    std::lock_guard<std::mutex> lk(m_);
    return outstanding_;
  }

 private:
  void release(Context* ctx) {
    std::lock_guard<std::mutex> lk(m_);
    free_.push_back(ctx);
    --outstanding_;
  }

  std::mutex m_;
  std::vector<std::unique_ptr<Context>> contexts_;
  std::vector<Context*> free_;
  int outstanding_ = 0;
  std::mutex plan_m_;
  PlanCache<StorageT, ComputeT> plans_;
  OperandCache<StorageT, ComputeT> operands_;
};

/// The process-wide context pool + shared plan cache backing the free
/// functions and the batched entry points.  GemmEngine deliberately keeps
/// its own private context instead (an engine is a single-owner object).
template <typename StorageT, typename ComputeT = StorageT>
inline ContextCache<StorageT, ComputeT>& process_context_cache() {
  static ContextCache<StorageT, ComputeT> cache;
  return cache;
}

}  // namespace ftgemm
