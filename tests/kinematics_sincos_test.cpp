// The repo-owned sin/cos kernel (kin::sinCos): accuracy against libm
// over the exact reduction range, fdlibm's edge behaviour (signed zero,
// tiny arguments), the libm fallback for non-finite and out-of-range
// arguments, and bit-identity of the scalar instance with the vector
// instance inside every runnable wide SpecBackend.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/kinematics/sincos.hpp"

namespace dadu {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kPio2 = 1.5707963267948966;

/// Distance in units of the last place between two finite doubles
/// (0 = bit-identical; +0 and -0 are one apart).
std::uint64_t ulpDiff(double a, double b) {
  const auto key = [](double v) {
    const auto bits = std::bit_cast<std::int64_t>(v);
    return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
  };
  const std::int64_t ka = key(a), kb = key(b);
  return ka > kb ? static_cast<std::uint64_t>(ka) - static_cast<std::uint64_t>(kb)
                 : static_cast<std::uint64_t>(kb) - static_cast<std::uint64_t>(ka);
}

/// Same bits, or both NaN.
bool sameValue(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

struct SinCos {
  double s, c;
};

SinCos kernel(double x) {
  SinCos r{};
  kin::sinCos(x, r.s, r.c);
  return r;
}

void expectLibmBits(double x) {
  const SinCos r = kernel(x);
  EXPECT_TRUE(sameValue(r.s, std::sin(x))) << "sin(" << x << ")";
  EXPECT_TRUE(sameValue(r.c, std::cos(x))) << "cos(" << x << ")";
}

TEST(SinCos, WithinOneUlpOfLibmOverTheExactRange) {
  std::mt19937_64 rng(20171);
  for (const double range : {0.7853981633974483, 4.0, 50.0, 1e3, 8e5}) {
    std::uniform_real_distribution<double> dist(-range, range);
    std::size_t exact = 0;
    constexpr std::size_t kSamples = 200000;
    for (std::size_t i = 0; i < kSamples; ++i) {
      const double x = dist(rng);
      const SinCos r = kernel(x);
      const std::uint64_t ds = ulpDiff(r.s, std::sin(x));
      const std::uint64_t dc = ulpDiff(r.c, std::cos(x));
      exact += (ds == 0) + (dc == 0);
      ASSERT_LE(ds, 1u) << "sin(" << x << ") range " << range;
      ASSERT_LE(dc, 1u) << "cos(" << x << ") range " << range;
    }
    // Not a bound, a sanity floor: a kernel that is off by one
    // everywhere would pass the ULP check but not this.
    EXPECT_GT(exact, 2 * kSamples * 9 / 10) << "range " << range;
  }
}

TEST(SinCos, SignedZeroAndTinyArgumentsAreExact) {
  const SinCos pz = kernel(0.0);
  EXPECT_FALSE(std::signbit(pz.s));
  EXPECT_EQ(pz.s, 0.0);
  EXPECT_EQ(pz.c, 1.0);
  const SinCos nz = kernel(-0.0);
  EXPECT_TRUE(std::signbit(nz.s));  // libm: sin(-0) = -0
  EXPECT_EQ(nz.s, 0.0);
  EXPECT_EQ(nz.c, 1.0);
  for (const double x : {0x1p-28, -0x1p-28, 0x1.fffffffffffffp-28, 1e-10,
                         -3e-12, 1e-300, -1e-300,
                         std::numeric_limits<double>::denorm_min(),
                         -std::numeric_limits<double>::min()}) {
    const SinCos r = kernel(x);
    EXPECT_TRUE(sameValue(r.s, x)) << "sin(" << x << ")";
    EXPECT_EQ(r.c, 1.0) << "cos(" << x << ")";
    expectLibmBits(x);
  }
}

TEST(SinCos, BranchEdgesAndQuadrantBoundaries) {
  // fdlibm's historical __kernel_cos branch points and the tiny cut-off,
  // each with its neighbours, plus the pi/4 quadrant boundary.
  std::vector<double> xs;
  for (const double edge : {0.3, 0.78125, 0x1p-27, 0.7853981633974483}) {
    for (const double x : {edge, std::nextafter(edge, 0.0),
                           std::nextafter(edge, 1.0)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  for (const double x : xs) {
    const SinCos r = kernel(x);
    EXPECT_LE(ulpDiff(r.s, std::sin(x)), 1u) << "sin(" << x << ")";
    EXPECT_LE(ulpDiff(r.c, std::cos(x)), 1u) << "cos(" << x << ")";
  }
  // Near-multiples of pi/2: the reduction must keep every bit of the
  // tiny remainder, so the small component matches libm's correctly
  // rounded value and the large one is exactly +-1.
  for (int k = -64; k <= 64; ++k) {
    if (k == 0) continue;
    const double x = k * kPio2;
    const SinCos r = kernel(x);
    const double small = (k % 2 == 0) ? r.s : r.c;
    const double large = (k % 2 == 0) ? r.c : r.s;
    const double small_ref = (k % 2 == 0) ? std::sin(x) : std::cos(x);
    EXPECT_EQ(std::fabs(large), 1.0) << "k = " << k;
    EXPECT_LE(ulpDiff(small, small_ref), 1u) << "k = " << k;
  }
}

TEST(SinCos, NonFiniteAndOutOfRangeFallBackToLibm) {
  const double max_arg = kin::detail::kSinCosMaxArg;
  for (const double x :
       {kNaN, -kNaN, kInf, -kInf, max_arg, -max_arg,
        std::nextafter(max_arg, kInf), 1e6, -3.5e7, 1e300,
        std::numeric_limits<double>::max()}) {
    expectLibmBits(x);
  }
  // Just inside the range the kernel itself answers, still within 1 ULP.
  const double inside = std::nextafter(max_arg, 0.0);
  const SinCos r = kernel(inside);
  EXPECT_LE(ulpDiff(r.s, std::sin(inside)), 1u);
  EXPECT_LE(ulpDiff(r.c, std::cos(inside)), 1u);
}

// ---------------------------------------------------------------------
// Scalar vs wide: every runnable backend's sinCos (the vector kernel on
// whole blocks, the scalar instance on ragged tails and on blocks with
// a fallback lane) against the scalar kin::sinCos, bit for bit.

std::vector<const kin::SpecBackend*> runnableBackends() {
  std::vector<const kin::SpecBackend*> out;
  for (const kin::SpecBackend* b : kin::allSpecBackends())
    if (kin::specBackendSupported(*b)) out.push_back(b);
  return out;
}

void expectBackendMatchesScalar(const kin::SpecBackend& backend,
                                const std::vector<double>& xs,
                                std::size_t lo, std::size_t hi) {
  std::vector<double> s(xs.size(), kNaN), c(xs.size(), kNaN);
  backend.sinCos(xs.data() + lo, s.data() + lo, c.data() + lo, hi - lo);
  for (std::size_t k = lo; k < hi; ++k) {
    const SinCos ref = kernel(xs[k]);
    EXPECT_TRUE(sameValue(s[k], ref.s))
        << backend.name() << " sin lane " << k << " x = " << xs[k];
    EXPECT_TRUE(sameValue(c[k], ref.c))
        << backend.name() << " cos lane " << k << " x = " << xs[k];
  }
}

TEST(SinCos, ScalarIsBitIdenticalToEveryWideBackendOverRaggedRanges) {
  std::mt19937_64 rng(424242);
  std::vector<double> xs;
  for (const double range : {0.7853981633974483, 4.0, 50.0, 1e3, 8e5}) {
    std::uniform_real_distribution<double> dist(-range, range);
    for (int i = 0; i < 203; ++i) xs.push_back(dist(rng));
  }
  for (const double x : {0.0, -0.0, 1e-300, 0x1p-27, 0.3, 0.78125, kPio2,
                         -2 * kPio2, 0.5 * kPio2, 1e7, kNaN, -kInf})
    xs.push_back(x);
  const std::size_t n = xs.size();
  for (const kin::SpecBackend* backend : runnableBackends()) {
    for (const auto& [lo, hi] : {std::pair<std::size_t, std::size_t>{0, n},
                                 {1, n}, {3, n - 2}, {5, 12}, {7, 8},
                                 {n - 13, n}}) {
      SCOPED_TRACE(::testing::Message() << "lanes [" << lo << ", " << hi
                                        << ")");
      expectBackendMatchesScalar(*backend, xs, lo, hi);
    }
  }
}

TEST(SinCos, OneOutOfRangeLaneInAVectorBlockFallsBackAlone) {
  // 16 lanes = whole blocks for every backend width; lanes the kernel
  // cannot handle sit alone among in-range neighbours.
  std::vector<double> xs(16);
  for (std::size_t k = 0; k < xs.size(); ++k)
    xs[k] = 0.37 * static_cast<double>(k) - 2.0;
  xs[3] = 1e7;
  xs[9] = kNaN;
  xs[14] = -kInf;
  for (const kin::SpecBackend* backend : runnableBackends()) {
    SCOPED_TRACE(backend->name());
    expectBackendMatchesScalar(*backend, xs, 0, xs.size());
    std::vector<double> s(xs.size()), c(xs.size());
    backend->sinCos(xs.data(), s.data(), c.data(), xs.size());
    EXPECT_TRUE(sameValue(s[3], std::sin(1e7)));
    EXPECT_TRUE(sameValue(c[3], std::cos(1e7)));
    EXPECT_TRUE(std::isnan(s[9]) && std::isnan(c[9]));
    EXPECT_TRUE(std::isnan(s[14]) && std::isnan(c[14]));

    // The walk runs the same trig: a one-joint chain with a = 1 and no
    // twist puts (cos q, sin q) in the end-effector's x and y, and
    // theta = 0, dtheta = 1 makes candidate k's q = 0 + xs[k].
    kin::DhParam dh;
    dh.a = 1.0;
    const kin::Chain link({kin::revolute(dh)}, "unit-link");
    linalg::VecX dtheta(1);
    dtheta[0] = 1.0;
    kin::BatchedForward batch(kin::BatchedForward::Precision::kF64, backend);
    batch.reset(link, xs.size());
    batch.evaluateLanes(link, linalg::VecX(1), dtheta, xs.data(), {}, false,
                        0, xs.size());
    for (std::size_t k = 0; k < xs.size(); ++k) {
      const SinCos ref = kernel(0.0 + xs[k]);
      EXPECT_TRUE(sameValue(batch.position(k).x, ref.c)) << "lane " << k;
      EXPECT_TRUE(sameValue(batch.position(k).y, ref.s)) << "lane " << k;
    }
  }
}

}  // namespace
}  // namespace dadu
