#include "dadu/kinematics/jacobian.hpp"

#include "dadu/kinematics/forward.hpp"

namespace dadu::kin {

void positionJacobian(const Chain& chain, const linalg::VecX& q,
                      linalg::MatX& j, std::vector<linalg::Mat4>& frames,
                      linalg::Vec3& ee) {
  chain.requireSize(q);
  const std::size_t n = chain.dof();
  if (j.rows() != 3 || j.cols() != n) j = linalg::MatX(3, n);

  linkFrames(chain, q, frames);
  ee = frames.back().position();

  // Column i is z_{i-1} x (ee - p_{i-1}), read straight off the
  // previous frame (the base for i = 0): its third column is the joint
  // axis, its fourth the origin.  Same expressions as Vec3::cross.
  double* j0 = j.rowPtr(0);
  double* j1 = j.rowPtr(1);
  double* j2 = j.rowPtr(2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& prev = (i == 0 ? chain.base() : frames[i - 1]).m;
    const double zx = prev[0][2], zy = prev[1][2], zz = prev[2][2];
    if (chain.joint(i).type == JointType::kRevolute) {
      const double dx = ee.x - prev[0][3];
      const double dy = ee.y - prev[1][3];
      const double dz = ee.z - prev[2][3];
      j0[i] = zy * dz - zz * dy;
      j1[i] = zz * dx - zx * dz;
      j2[i] = zx * dy - zy * dx;
    } else {
      j0[i] = zx;
      j1[i] = zy;
      j2[i] = zz;
    }
  }
}

linalg::MatX positionJacobian(const Chain& chain, const linalg::VecX& q) {
  linalg::MatX j;
  std::vector<linalg::Mat4> frames;
  linalg::Vec3 ee;
  positionJacobian(chain, q, j, frames, ee);
  return j;
}

linalg::MatX finiteDifferenceJacobian(const Chain& chain,
                                      const linalg::VecX& q, double h) {
  chain.requireSize(q);
  const std::size_t n = chain.dof();
  linalg::MatX j(3, n);
  linalg::VecX qp = q;
  for (std::size_t i = 0; i < n; ++i) {
    const double orig = qp[i];
    qp[i] = orig + h;
    const linalg::Vec3 fp = endEffectorPosition(chain, qp);
    qp[i] = orig - h;
    const linalg::Vec3 fm = endEffectorPosition(chain, qp);
    qp[i] = orig;
    j.setCol3(i, (fp - fm) / (2.0 * h));
  }
  return j;
}

long long jacobianFlops(std::size_t dof) {
  // Per joint: DH transform (~26), 4x4 multiply (112), cross product
  // (9), J_i J_i^T E accumulation (~18) — the four pipeline stages of
  // the paper's Fig. 3.
  constexpr long long kPerJoint = 26 + 112 + 9 + 18;
  return static_cast<long long>(dof) * kPerJoint;
}

}  // namespace dadu::kin
