// The scalar instance of the sin/cos kernel (see sincos.hpp).  Kept out
// of line so every caller — dhTransformRevolute, the scalar
// speculation backend, the wide backends' ragged tails — runs this one
// compiled body.
#include "dadu/kinematics/sincos.hpp"

#include <bit>
#include <cmath>

namespace dadu::kin {
namespace {

/// One-lane "vector" for sinCosKernel: the same IEEE double operations,
/// with bit ops on the std::bit_cast pattern.
struct ScalarLane {
  using reg = double;
  using mask = bool;
  static reg set1(double v) { return v; }
  static reg add(reg a, reg b) { return a + b; }
  static reg sub(reg a, reg b) { return a - b; }
  static reg mul(reg a, reg b) { return a * b; }
  static reg fromBits(std::uint64_t b) { return std::bit_cast<double>(b); }
  static std::uint64_t bits(reg a) { return std::bit_cast<std::uint64_t>(a); }
  static reg andBits(reg a, reg b) { return fromBits(bits(a) & bits(b)); }
  static reg xorBits(reg a, reg b) { return fromBits(bits(a) ^ bits(b)); }
  static reg addBits(reg a, reg b) { return fromBits(bits(a) + bits(b)); }
  template <int N>
  static reg shiftLeft(reg a) {
    return fromBits(bits(a) << N);
  }
  static mask less(reg a, reg b) { return a < b; }
  static mask hasBits(reg a, reg b) { return (bits(a) & bits(b)) == bits(b); }
  static reg select(mask m, reg yes, reg no) { return m ? yes : no; }
};

}  // namespace

void sinCos(double x, double& sin_out, double& cos_out) {
  double s, c;
  if (detail::sinCosKernel<ScalarLane>(x, s, c)) [[likely]] {
    sin_out = s;
    cos_out = c;
  } else {
    sin_out = std::sin(x);
    cos_out = std::cos(x);
  }
}

}  // namespace dadu::kin
