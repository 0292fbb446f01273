// sin and cos of a joint variable: the repo-owned trig of the f64 FK
// datapath.
//
// Every f64 joint-angle trig in the library — the scalar chain walk
// (dhTransformRevolute, hence FK, Jacobians, the solver head, IKAcc and
// trees) and every SpecBackend's speculative walk — goes through this
// one kernel, so all of them see the same bits.  It is written once as
// a template over a lane type V and instantiated for a scalar lane
// (sinCos(), out of line in sincos.cpp) and for the wide backends'
// vector wrappers (V4 = AVX2, V8 = AVX-512).  Each instance performs
// the same IEEE operations in the same order, with no FMA contraction
// (the project builds with -ffp-contract=off), so a lane's result never
// depends on which instance computed it.  That is what keeps the
// backends bit-identical to the scalar walk without calling scalar
// libm once per lane.
//
// The algorithm, per lane:
//   1. quadrant n = rint(x * 2/pi) via the 1.5 * 2^52 magic add;
//   2. y = x - n * pi/2 as a double-double (y0, y1): pi/2 is split in
//      three 33-bit parts plus a tail (fdlibm's pio2_1/2/3/3t), each
//      n * part is exact for |n| <= 2^19, the first subtraction is
//      exact by Sterbenz and the next two are captured exactly with
//      TwoSum, so the reduction is exact for |x| < 2^19 * pi/2
//      (~8.2e5) up to the 2^-137-sized tail term;
//   3. fdlibm's __kernel_sin / __kernel_cos polynomials evaluated with
//      the tail term y1, __kernel_cos's |y| branches (0.3, 0.78125) as
//      selects;
//   4. branch-free quadrant fix-up: swap sin/cos on odd n, then flip
//      signs with an xor of bit 1 of n (sin) and of n + 1 (cos).
// |x| < 2^-27 returns (x, 1) exactly, as fdlibm does (so sinCos(-0.0)
// is (-0.0, 1.0)).  Lanes that are non-finite or beyond the exact
// reduction range fall back to libm, per lane, in every instance.
//
// Accuracy: within 1 ULP of glibc's sin/cos over the whole exact range
// (tests/kinematics_sincos_test.cpp samples it).
//
// A lane type V provides (all static):
//   reg, mask              value register and comparison-mask types
//   set1, add, sub, mul    IEEE double arithmetic
//   andBits, xorBits       bitwise ops on the 64-bit patterns
//   addBits, shiftLeft<N>  64-bit integer add / left shift of patterns
//   fromBits(u64)          broadcast a bit pattern
//   less(a, b)             ordered a < b (false on NaN)
//   hasBits(a, b)          (bits(a) & bits(b)) == bits(b)
//   select(m, yes, no)     m ? yes : no per lane
#pragma once

#include <cstdint>
#include <initializer_list>

namespace dadu::kin {

/// sin(x) and cos(x) through the repo-owned kernel (see above).
/// Bit-identical to the wide backends' vector instances; within 1 ULP
/// of libm; libm itself for non-finite x or |x| >= 2^19 * pi/2.
void sinCos(double x, double& sin_out, double& cos_out);

namespace detail {

/// Largest |x| (exclusive) the reduction handles exactly: 2^19 * pi/2.
inline constexpr double kSinCosMaxArg = 0x1.921fb54442d18p+19;

/// Branch-free sin/cos of every lane of x.  Lanes where the returned
/// mask is clear (non-finite, or |x| >= kSinCosMaxArg) hold garbage:
/// the caller must recompute them with libm.
template <typename V>
inline typename V::mask sinCosKernel(typename V::reg x, typename V::reg& s,
                                     typename V::reg& c) {
  using reg = typename V::reg;
  constexpr double kToInt = 0x1.8p52;  // 1.5 * 2^52: rint by magic add
  constexpr double kInvPio2 = 0x1.45f306dc9c883p-1;
  // -pi/2 in three 33-bit parts plus a tail (fdlibm pio2_1, pio2_2,
  // pio2_3, pio2_3t, negated so every step is an addition).
  constexpr double kNegPio2_1 = -0x1.921fb544p+0;
  constexpr double kNegPio2_2 = -0x1.0b4611a6p-34;
  constexpr double kNegPio2_3 = -0x1.3198a2ep-69;
  constexpr double kNegPio2_3t = -0x1.b839a252049c1p-104;
  constexpr double kS1 = -0x1.5555555555549p-3;
  constexpr double kS2 = 0x1.111111110f8a6p-7;
  constexpr double kS3 = -0x1.a01a019c161d5p-13;
  constexpr double kS4 = 0x1.71de357b1fe7dp-19;
  constexpr double kS5 = -0x1.ae5e68a2b9cebp-26;
  constexpr double kS6 = 0x1.5d93a5acfd57cp-33;
  constexpr double kC1 = 0x1.555555555554cp-5;
  constexpr double kC2 = -0x1.6c16c16c15177p-10;
  constexpr double kC3 = 0x1.a01a019cb159p-16;
  constexpr double kC4 = -0x1.27e4f809c52adp-22;
  constexpr double kC5 = 0x1.1ee9ebdb4b1c4p-29;
  constexpr double kC6 = -0x1.8fae9be8838d4p-37;
  constexpr std::uint64_t kSignBit = 0x8000000000000000ULL;
  const auto k = [](double v) { return V::set1(v); };

  const reg ax = V::andBits(x, V::fromBits(~kSignBit));
  const typename V::mask in_range = V::less(ax, k(kSinCosMaxArg));

  // 1. Quadrant: the low bits of `magic` hold rint(x * 2/pi).
  const reg magic = V::add(V::mul(x, k(kInvPio2)), k(kToInt));
  const reg fn = V::sub(magic, k(kToInt));

  // 2. y = x - fn * pi/2.  r1 is exact (fn * pio2_1 is, and Sterbenz);
  // two TwoSum steps peel off fn * pio2_2 and fn * pio2_3 exactly.
  const reg r1 = V::add(x, V::mul(fn, k(kNegPio2_1)));
  const auto two_sum = [](reg a, reg b, reg& err) {
    const reg sum = V::add(a, b);
    const reg bv = V::sub(sum, a);
    const reg av = V::sub(sum, bv);
    err = V::add(V::sub(a, av), V::sub(b, bv));
    return sum;
  };
  reg e2, e3;
  const reg r2 = two_sum(r1, V::mul(fn, k(kNegPio2_2)), e2);
  const reg r3 = two_sum(r2, V::mul(fn, k(kNegPio2_3)), e3);
  const reg tail = V::add(V::add(e2, e3), V::mul(fn, k(kNegPio2_3t)));
  const reg y0 = V::add(r3, tail);
  const reg y1 = V::add(V::sub(r3, y0), tail);

  // 3. fdlibm's kernels with the tail term.  __kernel_cos subtracts a
  // split constant qx from both 1 and z/2 so 1 - qx is exact: 0 below
  // |y| = 0.3, 0.28125 above 0.78125, else |y|/4 with the low word
  // cleared (fdlibm tests the high word only; so do the thresholds).
  const reg z = V::mul(y0, y0);
  const reg v = V::mul(z, y0);
  // c[0] + z * (c[1] + z * (c[2] + ...)), innermost first.
  const auto horner = [&z](std::initializer_list<double> coeffs) {
    const double* p = coeffs.end();
    reg acc = V::set1(*--p);
    while (p != coeffs.begin()) acc = V::add(V::set1(*--p), V::mul(z, acc));
    return acc;
  };
  const reg rs = horner({kS2, kS3, kS4, kS5, kS6});
  const reg ks = V::sub(
      y0, V::sub(V::sub(V::mul(z, V::sub(V::mul(k(0.5), y1), V::mul(v, rs))),
                        y1),
                 V::mul(v, k(kS1))));
  const reg rc = V::mul(z, horner({kC1, kC2, kC3, kC4, kC5, kC6}));
  const reg ay = V::andBits(y0, V::fromBits(~kSignBit));
  const reg quarter = V::andBits(V::addBits(ay, V::fromBits(-(1ULL << 53))),
                                 V::fromBits(0xffffffff00000000ULL));
  const reg qx = V::select(
      V::less(ay, V::fromBits(0x3fd3333300000000ULL)), k(0.0),
      V::select(V::less(V::fromBits(0x3fe90000ffffffffULL), ay), k(0.28125),
                quarter));
  const reg hz = V::sub(V::mul(k(0.5), z), qx);
  const reg kc = V::sub(V::sub(k(1.0), qx),
                        V::sub(hz, V::sub(V::mul(z, rc), V::mul(y0, y1))));

  // 4. Quadrant fix-up: odd n swaps the pair; bit 1 of n negates sin,
  // bit 1 of n + 1 negates cos.
  const typename V::mask odd = V::hasBits(magic, V::fromBits(1));
  const reg sign = V::fromBits(kSignBit);
  const reg sin_sign = V::andBits(V::template shiftLeft<62>(magic), sign);
  const reg cos_sign = V::andBits(
      V::template shiftLeft<62>(V::addBits(magic, V::fromBits(1))), sign);
  const reg sq = V::xorBits(V::select(odd, kc, ks), sin_sign);
  const reg cq = V::xorBits(V::select(odd, ks, kc), cos_sign);

  // fdlibm's tiny-argument path: sin x = x (keeps -0.0), cos x = 1.
  const typename V::mask tiny = V::less(ax, k(0x1p-27));
  s = V::select(tiny, x, sq);
  c = V::select(tiny, k(1.0), cq);
  return in_range;
}

}  // namespace detail
}  // namespace dadu::kin
