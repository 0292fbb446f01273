// AVX2 speculation backend: 4 f64 lanes per vector over the
// lane-innermost Mat34Batch SoA layout.
//
// This translation unit is the only place in the library compiled with
// -mavx2 (see kinematics/CMakeLists.txt); everything it exports is
// reached through the SpecBackend vtable after a CPUID check, so the
// binary as a whole stays runnable on baseline x86-64.  When the
// compiler cannot target AVX2 (or the target is not x86) the factory
// returns nullptr and the registry simply never lists the backend.
#include "dadu/kinematics/backends/spec_backend.hpp"

#if defined(DADU_SPEC_BACKEND_AVX2)

#include <immintrin.h>

#include "dadu/kinematics/backends/walk_wide.hpp"

namespace dadu::kin {
namespace {

/// 4-lane f64 vector ops for walk_wide.hpp and the sin/cos kernel.
/// Unaligned loads/stores by design: lane ranges start at arbitrary
/// offsets (group boundaries, pool chunks) and penalty-free unaligned
/// access is exactly what the padded, 32-byte-aligned rows buy.
struct V4 {
  static constexpr std::size_t width = 4;
  using reg = __m256d;
  using mask = __m256d;  ///< all-ones / all-zeros per lane
  static reg load(const double* p) { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) { _mm256_storeu_pd(p, v); }
  static reg set1(double v) { return _mm256_set1_pd(v); }
  static reg add(reg a, reg b) { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_pd(a, b); }
  static reg sqrt(reg a) { return _mm256_sqrt_pd(a); }
  static reg fromBits(std::uint64_t b) {
    return _mm256_castsi256_pd(_mm256_set1_epi64x(static_cast<long long>(b)));
  }
  static reg andBits(reg a, reg b) { return _mm256_and_pd(a, b); }
  static reg xorBits(reg a, reg b) { return _mm256_xor_pd(a, b); }
  static reg addBits(reg a, reg b) {
    return _mm256_castsi256_pd(
        _mm256_add_epi64(_mm256_castpd_si256(a), _mm256_castpd_si256(b)));
  }
  template <int N>
  static reg shiftLeft(reg a) {
    return _mm256_castsi256_pd(_mm256_slli_epi64(_mm256_castpd_si256(a), N));
  }
  /// Ordered a < b: false on NaN lanes.
  static mask less(reg a, reg b) { return _mm256_cmp_pd(a, b, _CMP_LT_OQ); }
  static mask hasBits(reg a, reg b) {
    const __m256i bb = _mm256_castpd_si256(b);
    return _mm256_castsi256_pd(_mm256_cmpeq_epi64(
        _mm256_and_si256(_mm256_castpd_si256(a), bb), bb));
  }
  static reg select(mask m, reg yes, reg no) {
    return _mm256_blendv_pd(no, yes, m);
  }
  static bool all(mask m) { return _mm256_movemask_pd(m) == 0xF; }
};

class Avx2SpecBackend final : public SpecBackend {
 public:
  const char* name() const override { return "avx2"; }

  SpecBackendCaps caps() const override {
    SpecBackendCaps caps;
    caps.lane_multiple = V4::width;
    caps.max_fused_lanes = 256;
    caps.alignment = 32;
    caps.max_ulp_error = 0;  // scalar op order, no FMA: bit-identical
    return caps;
  }

  void walkLanes(const Chain& chain, const SpecLaneBlock& ws,
                 const linalg::VecX& theta, const linalg::VecX& dtheta,
                 const double* alpha, bool clamp_to_limits, std::size_t lo,
                 std::size_t hi) const override {
    detail::walkLanesWide<V4>(chain, *ws.acc, ws.ct, ws.st, ws.cand,
                              ws.stride, ws.trig, theta, dtheta, alpha,
                              clamp_to_limits, lo, hi);
  }

  void reduceErrors(const SpecLaneBlock& ws, const linalg::Vec3& target,
                    std::size_t lo, std::size_t hi) const override {
    detail::reduceErrorsWide<V4>(*ws.acc, ws.errors, target, lo, hi);
  }

  void sinCos(const double* x, double* s, double* c,
              std::size_t n) const override {
    // -0.0 + x == x for every double x (+0.0 would turn -0.0 into +0.0).
    detail::jointSinCosWide<V4>(-0.0, x, c, s, 0, n);
  }
};

}  // namespace

const SpecBackend* avx2SpecBackend() {
  static const Avx2SpecBackend backend;
  return &backend;
}

}  // namespace dadu::kin

#else  // !DADU_SPEC_BACKEND_AVX2

namespace dadu::kin {
const SpecBackend* avx2SpecBackend() { return nullptr; }
}  // namespace dadu::kin

#endif
