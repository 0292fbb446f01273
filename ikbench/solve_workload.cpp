// solve-100dof: the paper's Table 2 row.  In-process Quick-IK
// (makeSolver("quick-ik"), accuracy 1e-2, K = 64) on a 100-DOF
// serpentine chain, driven closed-loop by one caller thread.  Bypasses
// the service, registry and net layers entirely.  Latency is per solve,
// as measured in the closed loop.
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>

#include "bench.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/solvers/factory.hpp"
#include "helpers.hpp"

namespace ikbench {

namespace {

constexpr const char* kSpec = "serpentine:100";
constexpr std::size_t kPool = 2048;
constexpr std::size_t kWarmupSolves = 64;
/// The closed loop runs in this many slices, with a set-up probe
/// before each, so both figures sample the whole run, and a host speed
/// probe between each two (see kRefHostSpeed).
constexpr std::size_t kSlices = 25;

struct LocalPhase {
  std::vector<double> solve_ms;
  std::vector<std::int64_t> span_start_ns, span_end_ns;  ///< traced only
  double busy_s = 0.0;  ///< summed solve time
  double iterations = 0.0;
  double fk_evals = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
};

class LocalSolver {
 public:
  LocalSolver(const dadu::kin::Chain& chain,
              const std::vector<dadu::workload::IkTask>& tasks)
      : chain_(chain), tasks_(tasks) {
    dadu::ik::SolveOptions opts;
    opts.accuracy = kAccuracy;
    opts.speculations = kSpeculations;
    solver_ = dadu::ik::makeSolver("quick-ik", chain_, opts);
  }

  /// Closed loop from task `first`, appended to `ph`, for at least
  /// `seconds` and until `ph` holds `min_solves` solves.  Returns the
  /// task to continue from.
  std::size_t closedLoop(LocalPhase& ph, std::size_t first, double seconds,
                         std::size_t min_solves, bool trace) {
    const auto start = Clock::now();
    std::size_t k = first;
    while (secondsSince(start) < seconds || ph.attempted < min_solves)
      solveOne(ph, k++, trace);
    verify(ph);
    return k;
  }

 private:
  void solveOne(LocalPhase& ph, std::size_t k, bool trace) {
    const auto& task = tasks_[k % tasks_.size()];
    const auto t0 = Clock::now();
    dadu::ik::SolveResult r = solver_->solve(task.target, task.seed);
    const auto t1 = Clock::now();
    const double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    ph.solve_ms.push_back(ms);
    ph.busy_s += ms * 1e-3;
    ph.iterations += r.iterations;
    ph.fk_evals += static_cast<double>(r.fk_evaluations);
    if (trace) {
      ph.span_start_ns.push_back(t0.time_since_epoch().count());
      ph.span_end_ns.push_back(t1.time_since_epoch().count());
    }
    results_.push_back({k % tasks_.size(), std::move(r)});
    ++ph.attempted;
  }

  /// Verify every answer of the phase, off the timed path.
  void verify(LocalPhase& ph) {
    for (const auto& [task, r] : results_) {
      std::string why;
      if (!r.converged()) {
        why = "solve ended " + dadu::ik::toString(r.status);
      } else {
        why = verifyAnswer(chain_, tasks_[task].target, r.theta.data(),
                           r.theta.size(), r.error, kAccuracy)
                  .why;
      }
      if (!why.empty()) {
        ++ph.failed;
        if (ph.failures.size() < 8)
          ph.failures.push_back("task " + std::to_string(task) + ": " + why);
      }
    }
    results_.clear();
  }

  const dadu::kin::Chain& chain_;
  const std::vector<dadu::workload::IkTask>& tasks_;
  std::unique_ptr<dadu::ik::IkSolver> solver_;
  std::vector<std::pair<std::size_t, dadu::ik::SolveResult>> results_;
};

void addPhase(Tally& tally, const LocalPhase& ph) {
  tally.add(ph.attempted, ph.failed, ph.failures);
}

}  // namespace

void runSolve100(const Options& o, Report& report, Tally& tally) {
  const dadu::kin::Chain chain = dadu::registry::resolveChainSpec(kSpec);
  const auto tasks =
      dadu::workload::generateTasks(chain, static_cast<int>(kPool),
                                    {.seed = o.workload_seed});
  const double T = o.seconds;

  const std::size_t need = minSamplesFor(99.0);
  LocalSolver solver(chain, tasks);
  LocalPhase warm;
  solver.closedLoop(warm, kPool - 64, 0.05 * T, kWarmupSolves, false);
  addPhase(tally, warm);

  if (!o.trace) {
    // Set-up: chain build -> first solve, probed before each slice of
    // the closed loop.  The first solve is one fixed task, the same for
    // every seed, so its length does not vary with the workload's tasks.
    const auto probe = dadu::workload::generateTask(chain, 0, {.seed = 1});
    std::vector<double> setups, speeds{hostSpeed(kSpeedProbeS)},
        slice_iter_rate;
    LocalPhase closed;
    std::size_t next = 0;
    for (std::size_t r = 0; r < kSlices; ++r) {
      const auto t0 = Clock::now();
      const dadu::kin::Chain c = dadu::registry::resolveChainSpec(kSpec);
      auto probe_solver = dadu::ik::makeSolver("quick-ik", c, {});
      const auto res = probe_solver->solve(probe.target, probe.seed);
      setups.push_back(secondsSince(t0));
      if (!res.converged()) throw std::runtime_error("set-up solve failed");
      const double iters0 = closed.iterations;
      const double busy0 = closed.busy_s;
      next = solver.closedLoop(closed, next, 0.8 * T / kSlices,
                               r + 1 == kSlices ? need : 0, false);
      slice_iter_rate.push_back((closed.iterations - iters0) /
                                (closed.busy_s - busy0));
      speeds.push_back(hostSpeed(kSpeedProbeS));
    }
    addPhase(tally, closed);

    // An iteration costs about the same whatever the task at one DOF,
    // so the slices' iteration rates differ mostly by the host's speed;
    // the whole loop's iterations per solve turn the rate into solves.
    const double iters_per_solve =
        closed.iterations / static_cast<double>(closed.attempted);
    std::vector<double> rps, scaled_rps, scaled_setups;
    for (std::size_t r = 0; r < kSlices; ++r) {
      rps.push_back(slice_iter_rate[r] / iters_per_solve);
      scaled_rps.push_back(rateAtRefSpeed(
          rps.back(), bracketSpeed(speeds[r], speeds[r + 1])));
      scaled_setups.push_back(timeAtRefSpeed(setups[r], speeds[r]));
    }
    report.add("setup_s", median(scaled_setups), "s");
    report.add("throughput_rps", median(scaled_rps), "1/s");
    report.addReference("raw_setup_s", median(setups), "s");
    report.addReference("raw_throughput_rps", median(rps), "1/s");
    report.addReference("host_speed", median(speeds), "1/s");
    report.addReference("latency_p50_ms", pct(closed.solve_ms, 50, "closed"),
                        "ms");
    report.addReference("latency_p99_ms", pct(closed.solve_ms, 99, "closed"),
                        "ms");
    return;
  }

  // Traced pass: the same closed loop over the same tasks untraced,
  // then traced (spans in memory), then each layer timed on its own.
  LocalPhase plain, traced;
  solver.closedLoop(plain, 0, 0.35 * T, need, false);
  solver.closedLoop(traced, 0, 0.35 * T, need, true);
  addPhase(tally, plain);
  addPhase(tally, traced);
  const LayerTimes lt = timeLayers(chain, tasks, o.workload_seed);

  const double n = static_cast<double>(traced.attempted);
  const double iters = traced.iterations / n;
  const double solve_us = traced.busy_s * 1e6 / n;
  const double walk_share = iters * lt.walk_us / solve_us;
  const double head_share = iters * lt.head_us / solve_us;
  std::cerr << "attribution per solve: head " << num(head_share)
            << ", walk " << num(walk_share)
            << ", unattributed (selection, candidate copy-out, solver self) "
            << num(1 - head_share - walk_share) << "\n";

  if (!o.spans_dir.empty()) {
    std::filesystem::create_directories(o.spans_dir);
    std::ofstream f(o.spans_dir + "/solve-100dof-seed" +
                    std::to_string(o.seed) + ".csv");
    f << "request,span,start_ns,end_ns\n";
    for (std::size_t i = 0; i < traced.span_start_ns.size(); ++i)
      f << i << ",solvers.solve," << traced.span_start_ns[i] << ","
        << traced.span_end_ns[i] << "\n";
  }

  // The serving layers are not on this workload's path.
  for (const char* name :
       {"gen.lag_ms_p99", "net.self_ms_p99", "net.server_self_ms_mean",
        "net.client_self_ms_mean"})
    report.add(name, 0.0, "ms");
  report.add("net.codec_us", lt.codec_us, "us");
  report.add("net.bytes_per_request", 0.0, "bytes");
  report.add("net.read_pauses", 0.0, "count");
  report.add("registry.spec0_rps", 0.0, "1/s");
  report.add("registry.spec1_rps", 0.0, "1/s");
  report.add("registry.spec_mismatch", 0.0, "count");
  report.add("service.queue_ms_p50", 0.0, "ms");
  report.add("service.queue_ms_p99", 0.0, "ms");
  report.add("service.solve_ms_p50", pct(traced.solve_ms, 50, "traced"), "ms");
  report.add("service.solve_ms_p99", pct(traced.solve_ms, 99, "traced"), "ms");
  report.add("service.cache_hit_ratio", 0.0, "ratio");
  report.add("service.cache_inserts_per_request", 0.0, "ratio");
  report.add("service.batch_occupancy_mean", 0.0, "lanes");
  report.add("service.iterations_per_solve", 0.0, "iterations");
  report.add("service.reject_ratio", 0.0, "ratio");
  report.add("solvers.iterations_per_solve", iters, "iterations");
  report.add("solvers.converged_ratio",
             (n - static_cast<double>(traced.failed)) / n, "ratio");
  report.add("solvers.head_us", lt.head_us, "us");
  report.add("solvers.self_share", 1.0 - head_share - walk_share, "ratio");
  report.add("kinematics.walk_us", lt.walk_us, "us");
  report.add("kinematics.grouped_walk_us_per_lane", lt.grouped_walk_us_per_lane,
             "us");
  report.add("kinematics.walk_share", walk_share, "ratio");
  report.add("kinematics.fk_evals_per_solve", traced.fk_evals / n, "count");
  report.add("trace.coverage", head_share + walk_share, "ratio");
  report.add("trace.overhead",
             (n / traced.busy_s) /
                 (static_cast<double>(plain.attempted) / plain.busy_s),
             "ratio");
}

}  // namespace ikbench
