// AVX-512 speculation backend: 8 f64 lanes per vector over the
// lane-innermost Mat34Batch SoA layout.
//
// Compiled with -mavx512f in this translation unit only (see
// kinematics/CMakeLists.txt) and selected strictly behind a CPUID
// check, so the binary stays runnable on baseline x86-64.  The kernel
// body is the shared walk_wide.hpp template — same scalar operation
// order, mask-register blends instead of AVX2's blendv.
#include "dadu/kinematics/backends/spec_backend.hpp"

#if defined(DADU_SPEC_BACKEND_AVX512)

#include <immintrin.h>

#include "dadu/kinematics/backends/walk_wide.hpp"

namespace dadu::kin {
namespace {

/// 8-lane f64 vector ops for walk_wide.hpp and the sin/cos kernel.
/// Bit ops go through the integer domain: the _pd forms need AVX512DQ
/// and this TU only assumes AVX512F.
struct V8 {
  static constexpr std::size_t width = 8;
  using reg = __m512d;
  using mask = __mmask8;
  static reg load(const double* p) { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) { _mm512_storeu_pd(p, v); }
  static reg set1(double v) { return _mm512_set1_pd(v); }
  static reg add(reg a, reg b) { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_pd(a, b); }
  static reg sqrt(reg a) { return _mm512_sqrt_pd(a); }
  static reg fromBits(std::uint64_t b) {
    return _mm512_castsi512_pd(_mm512_set1_epi64(static_cast<long long>(b)));
  }
  static reg andBits(reg a, reg b) {
    return _mm512_castsi512_pd(
        _mm512_and_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static reg xorBits(reg a, reg b) {
    return _mm512_castsi512_pd(
        _mm512_xor_si512(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  static reg addBits(reg a, reg b) {
    return _mm512_castsi512_pd(
        _mm512_add_epi64(_mm512_castpd_si512(a), _mm512_castpd_si512(b)));
  }
  template <int N>
  static reg shiftLeft(reg a) {
    // All-lanes masked form with an explicit source: the unmasked one
    // trips GCC 12's -Wmaybe-uninitialized inside avx512fintrin.h.
    const __m512i v = _mm512_castpd_si512(a);
    return _mm512_castsi512_pd(_mm512_mask_slli_epi64(v, 0xFF, v, N));
  }
  /// Ordered a < b: false on NaN lanes.
  static mask less(reg a, reg b) { return _mm512_cmp_pd_mask(a, b, _CMP_LT_OQ); }
  static mask hasBits(reg a, reg b) {
    const __m512i bb = _mm512_castpd_si512(b);
    return _mm512_cmpeq_epi64_mask(
        _mm512_and_si512(_mm512_castpd_si512(a), bb), bb);
  }
  static reg select(mask m, reg yes, reg no) {
    return _mm512_mask_blend_pd(m, no, yes);
  }
  static bool all(mask m) { return m == 0xFF; }
};

class Avx512SpecBackend final : public SpecBackend {
 public:
  const char* name() const override { return "avx512"; }

  SpecBackendCaps caps() const override {
    SpecBackendCaps caps;
    caps.lane_multiple = V8::width;
    caps.max_fused_lanes = 256;
    caps.alignment = 64;
    caps.max_ulp_error = 0;  // scalar op order, no FMA: bit-identical
    return caps;
  }

  void walkLanes(const Chain& chain, const SpecLaneBlock& ws,
                 const linalg::VecX& theta, const linalg::VecX& dtheta,
                 const double* alpha, bool clamp_to_limits, std::size_t lo,
                 std::size_t hi) const override {
    detail::walkLanesWide<V8>(chain, *ws.acc, ws.ct, ws.st, ws.cand,
                              ws.stride, ws.trig, theta, dtheta, alpha,
                              clamp_to_limits, lo, hi);
  }

  void reduceErrors(const SpecLaneBlock& ws, const linalg::Vec3& target,
                    std::size_t lo, std::size_t hi) const override {
    detail::reduceErrorsWide<V8>(*ws.acc, ws.errors, target, lo, hi);
  }

  void sinCos(const double* x, double* s, double* c,
              std::size_t n) const override {
    // -0.0 + x == x for every double x (+0.0 would turn -0.0 into +0.0).
    detail::jointSinCosWide<V8>(-0.0, x, c, s, 0, n);
  }
};

}  // namespace

const SpecBackend* avx512SpecBackend() {
  static const Avx512SpecBackend backend;
  return &backend;
}

}  // namespace dadu::kin

#else  // !DADU_SPEC_BACKEND_AVX512

namespace dadu::kin {
const SpecBackend* avx512SpecBackend() { return nullptr; }
}  // namespace dadu::kin

#endif
