// Scalar PackSet + ISA dispatch for the packing & checksum engine.
//
// The scalar entries simply take the addresses of the portable templates in
// kernels/packing.hpp / abft/checksum.hpp.  This translation unit is
// compiled WITHOUT any SIMD flags on purpose: the template instantiations
// bound into the scalar set here are the ones the fallback path executes on
// machines without AVX2, so they must never contain AVX encodings.  (The
// SIMD translation units reach the scalar fallback through scalar_pack_*()
// function pointers instead of instantiating the templates themselves,
// which would let the linker pick an AVX-compiled copy for everyone.)
//
// The mixed-precision sets (bf16/fp16 storage, fp32 compute) bind the same
// templates at <S, C>: the widen happens inside the pack load via C(...),
// and the checksum-side members (reduce_bc / scale_encode_c / encode_cc)
// are the plain fp32 instantiations because they only ever see ComputeT
// panels (the checksum-in-accumulator-type rule, DESIGN.md §10).
#include <type_traits>

#include "abft/checksum.hpp"
#include "kernels/packing.hpp"

namespace ftgemm {

namespace {

template <typename S, typename C = S>
PackSet<S, C> make_scalar_pack() {
  PackSet<S, C> p;
  p.pack_a = &pack_a<S, C>;
  p.pack_a_ft = &pack_a_ft<S, C>;
  p.pack_b = &pack_b<S, C>;
  p.pack_b_ft = &pack_b_ft<S, C>;
  p.pack_b_ft_bc = &pack_b_ft_bc<S, C>;
  p.reduce_bc = &reduce_bc_from_panel<C>;
  p.scale_encode_c = &scale_encode_c<C>;
  p.encode_ar = &encode_ar_partial<S, C>;
  p.encode_cc = &encode_cc_from_panel<C>;
  p.pack_a_raw = &pack_a_raw<S>;
  p.widen_a = &widen_a_panel<S, C>;
  p.isa = Isa::kScalar;
  return p;
}

}  // namespace

PackSet<double> scalar_pack_f64() { return make_scalar_pack<double>(); }
PackSet<float> scalar_pack_f32() { return make_scalar_pack<float>(); }
PackSet<bf16_t, float> scalar_pack_bf16() {
  return make_scalar_pack<bf16_t, float>();
}
PackSet<fp16_t, float> scalar_pack_f16() {
  return make_scalar_pack<fp16_t, float>();
}

template <typename S, typename C>
PackSet<S, C> get_pack_set(Isa isa) {
  if constexpr (std::is_same_v<S, bf16_t>) {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_bf16();
      case Isa::kAvx2: return avx2_pack_bf16();
      case Isa::kScalar: return scalar_pack_bf16();
    }
    return scalar_pack_bf16();
  } else if constexpr (std::is_same_v<S, fp16_t>) {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_f16();
      case Isa::kAvx2: return avx2_pack_f16();
      case Isa::kScalar: return scalar_pack_f16();
    }
    return scalar_pack_f16();
  } else if constexpr (sizeof(S) == 8) {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_f64();
      case Isa::kAvx2: return avx2_pack_f64();
      case Isa::kScalar: return scalar_pack_f64();
    }
    return scalar_pack_f64();
  } else {
    switch (isa) {
      case Isa::kAvx512: return avx512_pack_f32();
      case Isa::kAvx2: return avx2_pack_f32();
      case Isa::kScalar: return scalar_pack_f32();
    }
    return scalar_pack_f32();
  }
}

template PackSet<double> get_pack_set<double, double>(Isa);
template PackSet<float> get_pack_set<float, float>(Isa);
template PackSet<bf16_t, float> get_pack_set<bf16_t, float>(Isa);
template PackSet<fp16_t, float> get_pack_set<fp16_t, float>(Isa);

}  // namespace ftgemm
