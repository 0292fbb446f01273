#include "dadu/kinematics/forward.hpp"

#include <algorithm>
#include <cstring>

#include "dadu/kinematics/backends/spec_backend.hpp"

namespace dadu::kin {
namespace {

/// One 4-wide matrix row (GCC/Clang vector extension; lowered to
/// whatever vector width the target has).  Element-wise ops on it are
/// plain IEEE double ops, so a row computed this way equals the
/// per-entry scalar computation.  Kept to locals: passing it by value
/// without AVX would change the calling convention.
using Row = double __attribute__((vector_size(4 * sizeof(double))));

}  // namespace

linalg::Mat4 forwardKinematics(const Chain& chain, const linalg::VecX& q) {
  chain.requireSize(q);
  linalg::Mat4 t = chain.base();
  for (std::size_t i = 0; i < chain.dof(); ++i)
    t = t * chain.joint(i).transform(q[i]);
  return t;
}

linalg::Vec3 endEffectorPosition(const Chain& chain, const linalg::VecX& q) {
  return forwardKinematics(chain, q).position();
}

void linkFrames(const Chain& chain, const linalg::VecX& q,
                std::vector<linalg::Mat4>& frames) {
  chain.requireSize(q);
  const std::size_t n = chain.dof();
  frames.resize(n);
  const SpecBackend& backend = dispatchedSpecBackend();
  const double* table = chain.dhTrig();
  const Row e3 = {0.0, 0.0, 0.0, 1.0};  // row 3 of every {i-1}T_i

  // The running frame's affine rows, kept in registers across joints.
  Row rows[3];
  for (std::size_t r = 0; r < 3; ++r)
    std::memcpy(&rows[r], chain.base().m[r].data(), sizeof(Row));

  // Joint angles go to the backend's batched sin/cos a block at a time
  // (one call up to kTrigBlock joints), on stack scratch.
  constexpr std::size_t kTrigBlock = 128;
  double angle[kTrigBlock], sin_q[kTrigBlock], cos_q[kTrigBlock];
  for (std::size_t b = 0; b < n; b += kTrigBlock) {
    const std::size_t m = std::min(kTrigBlock, n - b);
    for (std::size_t k = 0; k < m; ++k) {
      // A prismatic joint's trig is the table's; 0 is a placeholder.
      const Joint& joint = chain.joint(b + k);
      angle[k] = joint.type == JointType::kRevolute
                     ? joint.dh.theta + q[b + k]
                     : 0.0;
    }
    backend.sinCos(angle, sin_q, cos_q, m);

    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = b + k;
      const Joint& joint = chain.joint(i);
      const double* trig = table + 4 * i;
      const double ca = trig[0], sa = trig[1];
      const bool revolute = joint.type == JointType::kRevolute;
      const double ct = revolute ? cos_q[k] : trig[2];
      const double st = revolute ? sin_q[k] : trig[3];
      const double d = revolute ? joint.dh.d : joint.dh.d + q[i];
      // Rows 0-2 of {i-1}T_i, entry for entry as dhTransform* build them.
      const double a = joint.dh.a;
      const Row e0 = {ct, -st * ca, st * sa, a * ct};
      const Row e1 = {st, ct * ca, -ct * sa, a * st};
      const Row e2 = {0.0, sa, ca, d};
      // Mat4::operator*'s sum per entry, (((0 + a0 b0) + a1 b1) + a2 b2)
      // + a3 b3, four columns at a time.
      linalg::Mat4& f = frames[i];
      for (std::size_t r = 0; r < 3; ++r) {
        const Row t = rows[r];
        rows[r] = (((0.0 + Row{t[0], t[0], t[0], t[0]} * e0) +
                    Row{t[1], t[1], t[1], t[1]} * e1) +
                   Row{t[2], t[2], t[2], t[2]} * e2) +
                  Row{t[3], t[3], t[3], t[3]} * e3;
        std::memcpy(f.m[r].data(), &rows[r], sizeof(Row));
      }
      f.m[3] = {0.0, 0.0, 0.0, 1.0};
    }
  }
}

std::vector<linalg::Mat4> linkFrames(const Chain& chain,
                                     const linalg::VecX& q) {
  std::vector<linalg::Mat4> frames;
  linkFrames(chain, q, frames);
  return frames;
}

long long fkFlops(std::size_t dof) {
  // Per joint: one DH transform build (~2 trig approx 2*10 flops
  // equivalent + 6 mul) and one 4x4 multiply (64 mul + 48 add).
  constexpr long long kPerJoint = 20 + 6 + 64 + 48;
  return static_cast<long long>(dof) * kPerJoint;
}

}  // namespace dadu::kin
