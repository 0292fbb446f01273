// Exactness of the solver head's frame pass.
//
// kin::linkFrames computes each frame's three affine rows with batched
// backend trig and the chain's precomputed twist table;
// kin::positionJacobian reads J's columns off those frames; and
// ik::jtIterationHead builds on both.  All three must reproduce, bit
// for bit, the straightforward computation kept below as the reference:
// the full 4x4 product `t = t * joint.transform(q[i])` per joint, then
// J_i = z_{i-1}.cross(ee - p_{i-1}).  Comparisons use memcmp, so even a
// flipped sign of zero fails.  The suite runs under whatever backend
// dispatch picks; DADU_SPEC_BACKEND=scalar reruns it on the scalar one.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <string>
#include <vector>

#include "dadu/kinematics/forward.hpp"
#include "dadu/kinematics/jacobian.hpp"
#include "dadu/kinematics/presets.hpp"
#include "dadu/linalg/rotation.hpp"
#include "dadu/solvers/jt_common.hpp"
#include "dadu/workload/rng.hpp"

namespace dadu::kin {
namespace {

constexpr double kPi = std::numbers::pi;

struct Reference {
  std::vector<linalg::Mat4> frames;
  linalg::MatX j;
  linalg::Vec3 ee;
};

Reference referencePass(const Chain& chain, const linalg::VecX& q) {
  Reference ref;
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    t = t * chain.joint(i).transform(q[i]);
    ref.frames.push_back(t);
  }
  ref.ee = ref.frames.back().position();
  ref.j = linalg::MatX(3, chain.dof());
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const linalg::Mat4& prev = i == 0 ? chain.base() : ref.frames[i - 1];
    const linalg::Vec3 z = prev.rotation().col(2);
    ref.j.setCol3(i, chain.joint(i).type == JointType::kRevolute
                         ? z.cross(ref.ee - prev.position())
                         : z);
  }
  return ref;
}

template <typename T>
bool sameBits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

bool sameBits(const linalg::MatX& a, const linalg::MatX& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool sameBits(const linalg::VecX& a, const linalg::VecX& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Checks linkFrames, positionJacobian and jtIterationHead at q against
// the reference.
void expectExact(const Chain& chain, const linalg::VecX& q,
                 const std::string& what) {
  SCOPED_TRACE(what);
  const Reference ref = referencePass(chain, q);

  std::vector<linalg::Mat4> frames;
  linkFrames(chain, q, frames);
  ASSERT_EQ(frames.size(), chain.dof());
  for (std::size_t i = 0; i < chain.dof(); ++i)
    ASSERT_TRUE(sameBits(frames[i], ref.frames[i])) << "frame " << i;

  linalg::MatX j;
  linalg::Vec3 ee;
  positionJacobian(chain, q, j, frames, ee);
  EXPECT_TRUE(sameBits(ee, ref.ee));
  EXPECT_TRUE(sameBits(j, ref.j));

  // The head: e, J^T e and Eq. 8's alpha from the reference J.
  const linalg::Vec3 target = ref.ee + linalg::Vec3{0.05, -0.03, 0.02};
  const linalg::Vec3 e = target - ref.ee;
  linalg::VecX dtheta;
  linalg::mulTransposed3(ref.j, e, dtheta);
  const linalg::Vec3 jjte = linalg::mul3(ref.j, dtheta);
  const double alpha = e.dot(jjte) / jjte.dot(jjte);

  ik::JtWorkspace ws;
  const ik::JtIterationHead head = ik::jtIterationHead(chain, q, target, ws);
  EXPECT_TRUE(sameBits(head.error_vec, e));
  const double error = e.norm();
  EXPECT_TRUE(sameBits(head.error, error));
  EXPECT_TRUE(sameBits(head.alpha_base, alpha));
  EXPECT_TRUE(sameBits(ws.j, ref.j));
  EXPECT_TRUE(sameBits(ws.dtheta_base, dtheta));
}

linalg::VecX randomConfig(const Chain& chain, std::uint64_t seed) {
  workload::Rng rng(seed);
  linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    q[i] = joint.hasLimits() ? rng.uniform(joint.min, joint.max)
                             : rng.uniform(-2.0 * kPi, 2.0 * kPi);
  }
  return q;
}

// Every third joint telescopes, with a nonzero fixed theta offset so
// the prismatic rows read the table's cos/sin theta0.
Chain makeMixedChain(std::size_t dof) {
  std::vector<Joint> joints;
  for (std::size_t i = 0; i < dof; ++i) {
    DhParam dh;
    dh.a = 0.08;
    dh.alpha = (i % 2 == 0) ? kPi / 2 : -kPi / 2;
    dh.d = 0.01 * static_cast<double>(i % 4);
    if (i % 3 == 2) {
      dh.theta = 0.2;
      joints.push_back(prismatic(dh, 0.0, 0.15));
    } else {
      dh.theta = -0.1 * static_cast<double>(i % 5);
      joints.push_back(revolute(dh));
    }
  }
  return Chain(std::move(joints), "mixed");
}

TEST(FramesExact, SerpentineEveryDofUpTo128) {
  for (std::size_t dof = 1; dof <= 128; ++dof) {
    const Chain chain = makeSerpentine(dof);
    for (std::uint64_t seed = 0; seed < 3; ++seed)
      expectExact(chain, randomConfig(chain, 1000 * dof + seed),
                  "serpentine:" + std::to_string(dof) + " seed " +
                      std::to_string(seed));
  }
}

TEST(FramesExact, ChainsLongerThanOneTrigBlock) {
  for (const std::size_t dof : {129, 200, 257, 300}) {
    const Chain chain = makeSerpentine(dof);
    expectExact(chain, randomConfig(chain, dof),
                "serpentine:" + std::to_string(dof));
  }
}

TEST(FramesExact, IndustrialArms) {
  for (const Chain& chain : {makePuma560(), makeKukaIiwa()})
    for (std::uint64_t seed = 0; seed < 16; ++seed)
      expectExact(chain, randomConfig(chain, seed),
                  chain.name() + " seed " + std::to_string(seed));
}

TEST(FramesExact, PrismaticJoints) {
  for (const std::size_t dof : {1, 3, 7, 24, 100}) {
    const Chain chain = makeMixedChain(dof);
    for (std::uint64_t seed = 0; seed < 4; ++seed)
      expectExact(chain, randomConfig(chain, seed),
                  "mixed:" + std::to_string(dof) + " seed " +
                      std::to_string(seed));
  }
}

TEST(FramesExact, NonIdentityBase) {
  const linalg::Mat4 base = linalg::Mat4::fromRotationTranslation(
      linalg::rpy(0.7, -0.4, 1.1), {0.3, -0.2, 0.5});
  for (const Chain& src : {makeSerpentine(24), makeMixedChain(30),
                           makePuma560()}) {
    const Chain chain(src.joints(), src.name() + "+base", base);
    for (std::uint64_t seed = 0; seed < 4; ++seed)
      expectExact(chain, randomConfig(chain, seed),
                  chain.name() + " seed " + std::to_string(seed));
  }
}

// A ceiling mount: the base flips z with exact zero entries, so with
// both joint trig values negative every product in a frame entry's sum
// can be -0.  Mat4::operator*'s leading 0.0 + turns that sum into +0;
// the frame pass must keep it.
TEST(FramesExact, SignedZerosFromAFlippedBase) {
  const linalg::Mat4 base = linalg::Mat4::fromRotationTranslation(
      linalg::Mat3::fromRows({1.0, 0.0, 0.0}, {0.0, -1.0, 0.0},
                             {0.0, 0.0, -1.0}),
      {0.1, 0.2, -0.5});
  for (const Chain& src : {makeSerpentine(8), makePlanar(6), makePuma560()}) {
    const Chain chain(src.joints(), src.name() + "+flipped", base);
    linalg::VecX q(chain.dof());
    for (std::size_t i = 0; i < chain.dof(); ++i) q[i] = -2.0;
    expectExact(chain, q, chain.name() + " third quadrant");
    expectExact(chain, randomConfig(chain, 5), chain.name() + " random");
  }
}

// Angles beyond the trig kernel's exact reduction range (libm
// fallback), tiny ones (its |x| < 2^-27 path, signed zeros included)
// and zero: each case mixed into otherwise ordinary configurations.
TEST(FramesExact, TrigKernelEdgePaths) {
  const double big = 0x1.921fb54442d18p+19;  // 2^19 * pi/2
  const std::vector<double> edge = {big,     -big,     big * 3.0, 1e6,
                                    -2.5e7,  0x1p-27,  0x1p-28,   -0x1p-30,
                                    1e-300,  -0.0,     0.0,       0x1.fp-28};
  for (const std::size_t dof : {12, 50, 100}) {
    const Chain chain = makeSerpentine(dof);
    linalg::VecX q = randomConfig(chain, dof);
    for (std::size_t i = 0; i < dof; i += 2)
      q[i] = edge[(i / 2) % edge.size()];
    expectExact(chain, q, "serpentine:" + std::to_string(dof) + " edges");
    // Every lane of a whole trig block on the fallback path.
    for (std::size_t i = 0; i < dof; ++i) q[i] = 1e6 + static_cast<double>(i);
    expectExact(chain, q, "serpentine:" + std::to_string(dof) + " all big");
    for (std::size_t i = 0; i < dof; ++i) q[i] = (i % 2 ? -1.0 : 1.0) * 1e-30;
    expectExact(chain, q, "serpentine:" + std::to_string(dof) + " all tiny");
    expectExact(chain, chain.zeroConfiguration(),
                "serpentine:" + std::to_string(dof) + " zero");
  }
}

TEST(FramesExact, ReusedScratchOfAnotherSize) {
  // frames and j are caller scratch: stale contents from a longer or
  // shorter chain must not leak into the result.
  std::vector<linalg::Mat4> frames;
  linalg::MatX j;
  linalg::Vec3 ee;
  for (const std::size_t dof : {40, 7, 64, 7}) {
    const Chain chain = makeSerpentine(dof);
    const linalg::VecX q = randomConfig(chain, dof);
    const Reference ref = referencePass(chain, q);
    positionJacobian(chain, q, j, frames, ee);
    ASSERT_EQ(frames.size(), dof);
    for (std::size_t i = 0; i < dof; ++i)
      EXPECT_TRUE(sameBits(frames[i], ref.frames[i])) << dof << ":" << i;
    EXPECT_TRUE(sameBits(j, ref.j));
    EXPECT_TRUE(sameBits(ee, ref.ee));
  }
}

}  // namespace
}  // namespace dadu::kin
