// Per-iteration speculation cost: scalar per-candidate FK sweep vs the
// batched SoA kernel, per speculation backend.
//
// This is the workload of Algorithm 1 lines 6-15 — K forward-kinematics
// candidates per Quick-IK iteration — measured per sweep.  The scalar
// baseline reproduces the pre-batching solver loop exactly (axpyInto
// into a reused candidate vector, one Mat4-chain FK pass per
// candidate).  The batched path is measured once per speculation
// backend this binary carries and this CPU supports (scalar/autovec,
// AVX2, AVX-512), plus once for whatever backend runtime dispatch
// picked — the `speculation_dispatched` records carry the chosen
// backend name in their note, and the acceptance bar for the SIMD
// backend PR is dispatched >= autovec at every dof x K (>= 1.3x at
// 100 DOF / K = 64 on AVX2-class hardware).  The `jt_head` rows time
// the serial head every Quick-IK iteration runs before its sweep
// (ik::jtIterationHead: frames, J, J^T e and Eq. 8's alpha — the SPU)
// at 12, 50 and 100 DOF.  Three sin/cos rows close the table: one
// (sin, cos) pair per joint angle through libm, the scalar kin::sinCos,
// and the dispatched backend's vector instance.
//
// Usage: batch_fk [--quick] [--json PATH] [--spec-backend NAME]
//   --quick           fewer repetitions (CI smoke)
//   --json P          also write results to P as BENCH_kernels.json records
//   --spec-backend N  force the dispatched backend (like DADU_SPEC_BACKEND)
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "dadu/dadu.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/kinematics/sincos.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double g_sink = 0.0;  // defeat dead-code elimination

/// ns per call of `fn`, measured over enough repetitions to exceed
/// `min_seconds` of wall time.
template <typename Fn>
double nsPerOp(Fn&& fn, double min_seconds) {
  fn();  // warm-up
  long long reps = 1;
  for (;;) {
    const auto start = Clock::now();
    for (long long r = 0; r < reps; ++r) fn();
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - start).count();
    if (elapsed >= min_seconds || reps > (1LL << 30))
      return elapsed * 1e9 / static_cast<double>(reps);
    reps = elapsed <= 0.0 ? reps * 16 : reps * 4;
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--spec-backend") == 0 && i + 1 < argc) {
      if (!dadu::kin::setSpecBackendOverride(argv[++i])) {
        std::cerr << "unknown or unsupported --spec-backend '" << argv[i]
                  << "'\n";
        return 1;
      }
    } else {
      std::cerr << "usage: batch_fk [--quick] [--json PATH] "
                   "[--spec-backend NAME]\n";
      return 1;
    }
  }
  const double min_seconds = quick ? 0.01 : 0.25;

  // Backends to measure explicitly: every one this binary carries that
  // this CPU can run (allSpecBackends is widest-first; reverse so the
  // table reads scalar -> wider).
  std::vector<const dadu::kin::SpecBackend*> backends;
  for (const dadu::kin::SpecBackend* b : dadu::kin::allSpecBackends())
    if (dadu::kin::specBackendSupported(*b)) backends.insert(backends.begin(), b);
  const std::string dispatched = dadu::kin::activeSpecBackendName();

  std::vector<bench::KernelRecord> records;
  std::cout << "Per-iteration speculation cost (lines 6-15 of Algorithm 1)\n"
            << "dispatched speculation backend: " << dispatched << "\n"
            << "dof    K   percand ns/sweep";
  for (const auto* b : backends) std::cout << "   " << b->name() << " ns/sweep";
  std::cout << "   dispatch speedup\n";

  // dof x K grid, plus the K=512 over-budget corner the walk-slicing
  // fix targets.
  std::vector<std::pair<std::size_t, int>> grid;
  for (const std::size_t dof : {std::size_t{12}, std::size_t{50},
                                std::size_t{100}})
    for (const int k_count : {16, 64, 256}) grid.push_back({dof, k_count});
  grid.push_back({std::size_t{100}, 512});

  for (const auto& [dof, k_count] : grid) {
    const auto chain = dadu::kin::makeSerpentine(dof);
    const auto task = dadu::workload::generateTask(chain, 0);

    // One real serial head supplies representative theta/dtheta/alpha.
    dadu::ik::JtWorkspace ws;
    const auto head =
        dadu::ik::jtIterationHead(chain, task.seed, task.target, ws);
    std::vector<double> alphas(static_cast<std::size_t>(k_count));
    for (int k = 1; k <= k_count; ++k)
      alphas[k - 1] =
          (static_cast<double>(k) / k_count) * head.alpha_base;

    // Scalar baseline: the pre-batching per-candidate loop.
    dadu::linalg::VecX cand(chain.dof());
    const auto scalar_sweep = [&] {
      double acc = 0.0;
      for (int k = 0; k < k_count; ++k) {
        dadu::linalg::axpyInto(alphas[static_cast<std::size_t>(k)],
                               ws.dtheta_base, task.seed, cand);
        const dadu::linalg::Vec3 x =
            dadu::kin::endEffectorPosition(chain, cand);
        acc += (task.target - x).norm();
      }
      g_sink += acc;
    };
    const double scalar_ns = nsPerOp(scalar_sweep, min_seconds);
    records.push_back({"speculation_scalar", static_cast<int>(dof), k_count,
                       scalar_ns, ""});

    // Batched kernel, once per available backend.  The scalar backend
    // is the autovectorized reference — its record keeps the
    // historical "speculation_batched" name so the performance
    // trajectory stays diffable.
    const auto measure = [&](const dadu::kin::SpecBackend* backend) {
      dadu::kin::BatchedForward batch(
          dadu::kin::BatchedForward::Precision::kF64, backend);
      batch.reset(chain, alphas.size());
      return nsPerOp(
          [&] {
            batch.evaluateLanes(chain, task.seed, ws.dtheta_base,
                                alphas.data(), task.target, false, 0,
                                alphas.size());
            g_sink += batch.errors()[0];
          },
          min_seconds);
    };

    std::printf("%3zu  %4d   %15.0f", dof, k_count, scalar_ns);
    double dispatched_ns = 0.0;
    for (const dadu::kin::SpecBackend* backend : backends) {
      const double ns = measure(backend);
      const bool is_scalar = std::strcmp(backend->name(), "scalar") == 0;
      const std::string kernel =
          is_scalar ? "speculation_batched"
                    : std::string("speculation_batched_") + backend->name();
      records.push_back({kernel, static_cast<int>(dof), k_count, ns,
                         std::string("backend=") + backend->name()});
      if (dispatched == backend->name()) dispatched_ns = ns;
      std::printf("   %*.0f", static_cast<int>(std::strlen(backend->name())) + 9,
                  ns);
    }
    if (dispatched_ns == 0.0) dispatched_ns = measure(nullptr);
    records.push_back({"speculation_dispatched", static_cast<int>(dof),
                       k_count, dispatched_ns,
                       std::string("backend=") + dispatched});
    std::printf("   %6.2fx\n", scalar_ns / dispatched_ns);
  }

  // The serial head, ns per call, at the task's seed configuration.
  std::printf("\njt_head ns per call:");
  for (const std::size_t dof : {std::size_t{12}, std::size_t{50},
                                std::size_t{100}}) {
    const auto chain = dadu::kin::makeSerpentine(dof);
    const auto task = dadu::workload::generateTask(chain, 0);
    dadu::ik::JtWorkspace ws;
    const double ns = nsPerOp(
        [&] {
          g_sink +=
              dadu::ik::jtIterationHead(chain, task.seed, task.target, ws)
                  .alpha_base;
        },
        min_seconds);
    records.push_back({"jt_head", static_cast<int>(dof), 0, ns,
                       std::string("backend=") + dispatched});
    std::printf("   %zu DOF %.0f", dof, ns);
  }
  std::printf("\n");

  // Joint-angle trig, ns per (sin, cos) pair over a 256-lane sweep of
  // angles in [-pi, pi) — the per-lane trig every walk above pays.
  constexpr std::size_t kTrigLanes = 256;
  std::vector<double> angles(kTrigLanes), sines(kTrigLanes),
      cosines(kTrigLanes);
  for (std::size_t k = 0; k < kTrigLanes; ++k)
    angles[k] = -3.14159 + 6.28318 * static_cast<double>(k) / kTrigLanes;
  const auto per_pair = [&](auto&& sweep) {
    return nsPerOp(
               [&] {
                 sweep();
                 g_sink += sines[7] + cosines[11];
               },
               min_seconds) /
           kTrigLanes;
  };
  const double libm_ns = per_pair([&] {
    for (std::size_t k = 0; k < kTrigLanes; ++k) {
      sines[k] = std::sin(angles[k]);
      cosines[k] = std::cos(angles[k]);
    }
  });
  const double kernel_ns = per_pair([&] {
    for (std::size_t k = 0; k < kTrigLanes; ++k)
      dadu::kin::sinCos(angles[k], sines[k], cosines[k]);
  });
  const dadu::kin::SpecBackend& wide = dadu::kin::dispatchedSpecBackend();
  const double wide_ns = per_pair([&] {
    wide.sinCos(angles.data(), sines.data(), cosines.data(), kTrigLanes);
  });
  records.push_back({"sincos_libm", 0, kTrigLanes, libm_ns, ""});
  records.push_back({"sincos_scalar", 0, kTrigLanes, kernel_ns, ""});
  records.push_back({"sincos_dispatched", 0, kTrigLanes, wide_ns,
                     std::string("backend=") + dispatched});
  std::printf("\nsin+cos ns per angle: libm %.2f   kin::sinCos %.2f   "
              "%s %.2f\n",
              libm_ns, kernel_ns, dispatched.c_str(), wide_ns);

  if (!json_path.empty()) {
    if (!bench::writeKernelJson(json_path,
                                bench::currentRunHeader(argc, argv),
                                records)) {
      std::cerr << "failed to write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  if (g_sink == 42.0) std::cout << "";  // keep g_sink observable
  return 0;
}
