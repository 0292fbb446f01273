// Google-benchmark microbenches of the kernels the whole system is
// built from: 4x4 matrix multiply (the FKU operation), joint-angle
// sin/cos, forward kinematics, Jacobian evaluation, Jacobi SVD, and one
// full iteration of each solver family.  These ground the platform
// models: the measured per-kernel host throughput is the reference
// point for the Atom/TX1 calibration constants discussed in
// EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <cmath>
#include <vector>

#include "dadu/dadu.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/sincos.hpp"

namespace {

void BM_Mat4Multiply(benchmark::State& state) {
  const auto a = dadu::linalg::Mat4::rotationZ(0.3) *
                 dadu::linalg::Mat4::translation({1, 2, 3});
  const auto b = dadu::linalg::Mat4::rotationX(0.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a * b);
  }
}
BENCHMARK(BM_Mat4Multiply);

void BM_ForwardKinematics(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::kin::endEffectorPosition(chain, q));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ForwardKinematics)->Arg(12)->Arg(25)->Arg(50)->Arg(100);

void BM_Jacobian(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  dadu::linalg::MatX j;
  std::vector<dadu::linalg::Mat4> frames;
  dadu::linalg::Vec3 ee;
  for (auto _ : state) {
    dadu::kin::positionJacobian(chain, q, j, frames, ee);
    benchmark::DoNotOptimize(j.data());
  }
}
BENCHMARK(BM_Jacobian)->Arg(12)->Arg(50)->Arg(100);

void BM_SvdJacobian(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.02 * static_cast<double>(i + 1);
  const auto j = dadu::kin::positionJacobian(chain, q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::linalg::svdJacobi(j));
  }
}
BENCHMARK(BM_SvdJacobian)->Arg(12)->Arg(50)->Arg(100);

void BM_SpeculationScalar(benchmark::State& state) {
  // The pre-batching speculation sweep: K independent per-candidate FK
  // passes (axpy + Mat4-chain walk + error norm), args = {DOF, K}.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const int k_count = static_cast<int>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  const auto head =
      dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
  dadu::linalg::VecX cand(chain.dof());
  for (auto _ : state) {
    double acc = 0.0;
    for (int k = 1; k <= k_count; ++k) {
      const double alpha =
          (static_cast<double>(k) / k_count) * head.alpha_base;
      dadu::linalg::axpyInto(alpha, ws.dtheta_base, task.seed, cand);
      acc += (task.target - dadu::kin::endEffectorPosition(chain, cand)).norm();
    }
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * k_count);
}
BENCHMARK(BM_SpeculationScalar)
    ->Args({12, 64})->Args({50, 64})->Args({100, 16})->Args({100, 64});

void BM_SpeculationBatched(benchmark::State& state) {
  // Same sweep through the SoA kernel: one chain walk advances all K
  // candidate transforms, args = {DOF, K}.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const int k_count = static_cast<int>(state.range(1));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::JtWorkspace ws;
  const auto head =
      dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
  std::vector<double> alphas(static_cast<std::size_t>(k_count));
  for (int k = 1; k <= k_count; ++k)
    alphas[k - 1] = (static_cast<double>(k) / k_count) * head.alpha_base;
  dadu::kin::BatchedForward batch;
  batch.reset(chain, alphas.size());
  for (auto _ : state) {
    batch.evaluateLanes(chain, task.seed, ws.dtheta_base, alphas.data(),
                        task.target, false, 0, alphas.size());
    benchmark::DoNotOptimize(batch.errors().data());
  }
  state.SetItemsProcessed(state.iterations() * k_count);
}
BENCHMARK(BM_SpeculationBatched)
    ->Args({12, 64})->Args({50, 64})->Args({100, 16})->Args({100, 64});

void BM_QuickIkIteration(benchmark::State& state) {
  // One Quick-IK iteration = head + 64 speculative FK passes; measured
  // as a 1-iteration solve budget.
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::ik::QuickIkSolver solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_QuickIkIteration)->Arg(12)->Arg(50)->Arg(100);

void BM_JtSerialIteration(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::ik::JtSerialSolver solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_JtSerialIteration)->Arg(12)->Arg(50)->Arg(100);

void BM_PinvSvdIteration(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::ik::PinvSvdSolver solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_PinvSvdIteration)->Arg(12)->Arg(50)->Arg(100);

void BM_CordicSinCos(benchmark::State& state) {
  const dadu::linalg::FixedFormat fmt{static_cast<int>(state.range(0))};
  double angle = 0.1;
  for (auto _ : state) {
    double s, c;
    dadu::linalg::cordicSinCos(fmt, angle, s, c);
    benchmark::DoNotOptimize(s);
    angle += 0.01;
  }
}
BENCHMARK(BM_CordicSinCos)->Arg(16)->Arg(24);

// Joint-angle sin+cos over a 256-lane sweep in [-pi, pi): libm, the
// scalar kin::sinCos, and the dispatched speculation backend's vector
// instance (items = angles).
template <typename Sweep>
void sinCosSweep(benchmark::State& state, Sweep&& sweep) {
  constexpr std::size_t kLanes = 256;
  std::vector<double> x(kLanes), s(kLanes), c(kLanes);
  for (std::size_t k = 0; k < kLanes; ++k)
    x[k] = -3.14159 + 6.28318 * static_cast<double>(k) / kLanes;
  for (auto _ : state) {
    sweep(x.data(), s.data(), c.data(), kLanes);
    benchmark::DoNotOptimize(s.data());
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<long>(kLanes));
}

void BM_SinCosLibm(benchmark::State& state) {
  sinCosSweep(state, [](const double* x, double* s, double* c, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) {
      s[k] = std::sin(x[k]);
      c[k] = std::cos(x[k]);
    }
  });
}
BENCHMARK(BM_SinCosLibm);

void BM_SinCosScalarKernel(benchmark::State& state) {
  sinCosSweep(state, [](const double* x, double* s, double* c, std::size_t n) {
    for (std::size_t k = 0; k < n; ++k) dadu::kin::sinCos(x[k], s[k], c[k]);
  });
}
BENCHMARK(BM_SinCosScalarKernel);

void BM_SinCosDispatched(benchmark::State& state) {
  const dadu::kin::SpecBackend& backend = dadu::kin::dispatchedSpecBackend();
  state.SetLabel(backend.name());
  sinCosSweep(state, [&](const double* x, double* s, double* c, std::size_t n) {
    backend.sinCos(x, s, c, n);
  });
}
BENCHMARK(BM_SinCosDispatched);

void BM_ForwardKinematicsF32(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::kin::endEffectorPositionF32(chain, q));
  }
}
BENCHMARK(BM_ForwardKinematicsF32)->Arg(50)->Arg(100);

void BM_ForwardKinematicsFixed(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const dadu::linalg::FixedFormat fmt{20};
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.01 * static_cast<double>(i);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dadu::kin::endEffectorPositionFixed(chain, q, fmt));
  }
}
BENCHMARK(BM_ForwardKinematicsFixed)->Arg(50)->Arg(100);

void BM_SegmentSegmentDistance(benchmark::State& state) {
  const dadu::linalg::Vec3 p1{0, 0, 0}, q1{1, 0.2, -0.3};
  const dadu::linalg::Vec3 p2{0.4, 1, 0.7}, q2{-0.2, 0.5, 1.1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dadu::geom::segmentSegmentDistance(p1, q1, p2, q2));
  }
}
BENCHMARK(BM_SegmentSegmentDistance);

void BM_SelfClearance(benchmark::State& state) {
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const dadu::geom::RobotGeometry body(chain, 0.02);
  dadu::linalg::VecX q(chain.dof());
  for (std::size_t i = 0; i < q.size(); ++i) q[i] = 0.03 * static_cast<double>(i % 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(body.selfClearance(q));
  }
}
BENCHMARK(BM_SelfClearance)->Arg(12)->Arg(50);

void BM_AccelSimIteration(benchmark::State& state) {
  // Simulator overhead per modelled iteration (functional math + cycle
  // accounting).
  const auto chain =
      dadu::kin::makeSerpentine(static_cast<std::size_t>(state.range(0)));
  const auto task = dadu::workload::generateTask(chain, 0);
  dadu::ik::SolveOptions options;
  options.max_iterations = 1;
  dadu::acc::IkAccelerator solver(chain, options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(task.target, task.seed));
  }
}
BENCHMARK(BM_AccelSimIteration)->Arg(50)->Arg(100);

}  // namespace
