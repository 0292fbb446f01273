// Reference batched chain walk, shared by the scalar backend, the f32
// datapath, and the ragged-tail handling of the wide backends.
//
// These templates are the original autovectorizable SoA kernel: batch
// index innermost, unit-stride lane loops, strict IEEE arithmetic in
// scalar program order (no reassociation, no FMA — the project
// compiles with -ffp-contract=off so results are identical whatever
// ISA the compiler autovectorizes them to).  f64 joint trig goes
// through the scalar instance of kin::sinCos, the kernel the wide
// backends run vectorized; the f32 datapath keeps float libm.  Every
// other backend is measured, and ULP-bounded, against this code.
#pragma once

#include <cmath>
#include <cstddef>
#include <type_traits>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/kinematics/sincos.hpp"
#include "dadu/linalg/mat34_batch.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"

namespace dadu::kin::detail {

// Advance the K accumulator transforms across one joint: A_k := A_k *
// {i-1}T_i(q_k), with the batch index innermost so every statement in
// the lane loop is a unit-stride multiply-add the compiler can
// vectorize.  The per-entry expressions reproduce dhTransform{Revolute,
// Prismatic} times the scalar 4x4 product term-for-term (left-to-right
// accumulation, row 3 contributions dropped — they are exact zeros and
// an exact +a(i,3)), so lane results match the scalar chain walk
// bit-for-bit up to the sign of zero rotation entries.
template <typename T, bool kPrismatic>
void advanceJoint(linalg::Mat34BatchT<T>& acc, const T* ct, const T* st,
                  T ca, T sa, T a_len, T d_fixed, const double* q,
                  std::size_t lo, std::size_t hi) {
  T* a00 = acc.row(0, 0); T* a01 = acc.row(0, 1); T* a02 = acc.row(0, 2); T* a03 = acc.row(0, 3);
  T* a10 = acc.row(1, 0); T* a11 = acc.row(1, 1); T* a12 = acc.row(1, 2); T* a13 = acc.row(1, 3);
  T* a20 = acc.row(2, 0); T* a21 = acc.row(2, 1); T* a22 = acc.row(2, 2); T* a23 = acc.row(2, 3);
  for (std::size_t k = lo; k < hi; ++k) {
    const T c = ct[k], s = st[k];
    // Column entries of {i-1}T_i at lane k (the dhTransform* values).
    const T b01 = -s * ca, b11 = c * ca;
    const T b02 = s * sa, b12 = -c * sa;
    const T b03 = a_len * c, b13 = a_len * s;
    T dl;
    if constexpr (kPrismatic)
      dl = d_fixed + static_cast<T>(q[k]);
    else
      dl = d_fixed;

    const T o00 = a00[k], o01 = a01[k], o02 = a02[k], o03 = a03[k];
    const T o10 = a10[k], o11 = a11[k], o12 = a12[k], o13 = a13[k];
    const T o20 = a20[k], o21 = a21[k], o22 = a22[k], o23 = a23[k];

    a00[k] = o00 * c + o01 * s;
    a01[k] = o00 * b01 + o01 * b11 + o02 * sa;
    a02[k] = o00 * b02 + o01 * b12 + o02 * ca;
    a03[k] = o00 * b03 + o01 * b13 + o02 * dl + o03;

    a10[k] = o10 * c + o11 * s;
    a11[k] = o10 * b01 + o11 * b11 + o12 * sa;
    a12[k] = o10 * b02 + o11 * b12 + o12 * ca;
    a13[k] = o10 * b03 + o11 * b13 + o12 * dl + o13;

    a20[k] = o20 * c + o21 * s;
    a21[k] = o20 * b01 + o21 * b11 + o22 * sa;
    a22[k] = o20 * b02 + o21 * b12 + o22 * ca;
    a23[k] = o20 * b03 + o21 * b13 + o22 * dl + o23;
  }
}

// One full chain walk over lanes [lo, hi): candidate formation, trig,
// and the per-joint batched advance.  T = double reproduces the Mat4
// path; T = float reproduces the forward_f32 path (candidates stay
// double, every FK intermediate is float).  `trig` is the per-joint DH
// constant table (Chain::dhTrig() for f64, BatchedForward::reset()'s
// float table for f32): 4 entries per joint — cos/sin of the link
// twist alpha, cos/sin of the fixed theta offset.  `stride` is the
// padded lane stride of the candidate matrix.
template <typename T>
void walkLanes(const Chain& chain, linalg::Mat34BatchT<T>& acc, T* ct, T* st,
               double* cand, std::size_t stride, const T* trig,
               const linalg::VecX& theta, const linalg::VecX& dtheta,
               const double* alpha, bool clamp_to_limits, std::size_t lo,
               std::size_t hi) {
  acc.setLanes(chain.base(), lo, hi);
  for (std::size_t i = 0; i < chain.dof(); ++i) {
    const Joint& joint = chain.joint(i);
    const DhParam& p = joint.dh;
    double* q = cand + i * stride;

    // Candidate joint values theta_i + alpha_k * dtheta_i, clamped the
    // same way Joint::clamp does.
    const double ti = theta[i], di = dtheta[i];
    for (std::size_t k = lo; k < hi; ++k) q[k] = ti + alpha[k] * di;
    if (clamp_to_limits) {
      const double qmin = joint.min, qmax = joint.max;
      for (std::size_t k = lo; k < hi; ++k) {
        if (q[k] < qmin) q[k] = qmin;
        if (q[k] > qmax) q[k] = qmax;
      }
    }

    const T ca = trig[4 * i + 0];
    const T sa = trig[4 * i + 1];
    const T a_len = static_cast<T>(p.a);
    const T d_fix = static_cast<T>(p.d);
    if (joint.type == JointType::kRevolute) {
      const T t0 = static_cast<T>(p.theta);
      for (std::size_t k = lo; k < hi; ++k) {
        const T qk = t0 + static_cast<T>(q[k]);
        if constexpr (std::is_same_v<T, double>) {
          sinCos(qk, st[k], ct[k]);
        } else {
          ct[k] = std::cos(qk);
          st[k] = std::sin(qk);
        }
      }
      advanceJoint<T, false>(acc, ct, st, ca, sa, a_len, d_fix, q, lo, hi);
    } else {
      // Prismatic: the rotation block is fixed; only d varies per lane.
      const T c0 = trig[4 * i + 2];
      const T s0 = trig[4 * i + 3];
      for (std::size_t k = lo; k < hi; ++k) {
        ct[k] = c0;
        st[k] = s0;
      }
      advanceJoint<T, true>(acc, ct, st, ca, sa, a_len, d_fix, q, lo, hi);
    }
  }
}

// e_k = ||target - x_k||, accumulated x, y, z like Vec3::norm so the
// scalar path's errors are reproduced exactly.  f32 positions are
// widened to double first, as endEffectorPositionF32 does.
template <typename T>
void reduceErrors(const linalg::Mat34BatchT<T>& acc, double* err,
                  const linalg::Vec3& target, std::size_t lo,
                  std::size_t hi) {
  const double tx = target.x, ty = target.y, tz = target.z;
  const T* px = acc.row(0, 3);
  const T* py = acc.row(1, 3);
  const T* pz = acc.row(2, 3);
  for (std::size_t k = lo; k < hi; ++k) {
    const double dx = tx - static_cast<double>(px[k]);
    const double dy = ty - static_cast<double>(py[k]);
    const double dz = tz - static_cast<double>(pz[k]);
    err[k] = std::sqrt(dx * dx + dy * dy + dz * dz);
  }
}

}  // namespace dadu::kin::detail
