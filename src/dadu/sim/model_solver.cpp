#include "dadu/sim/model_solver.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "dadu/fault/fault.hpp"

namespace dadu::sim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double nextUnit(std::uint64_t& state) {
  return static_cast<double>(splitmix64(state) >> 11) * 0x1.0p-53;
}

}  // namespace

ModelSolver::ModelSolver(kin::Chain chain, ModelSolverConfig config)
    : chain_(std::move(chain)),
      config_(config),
      rng_(config.seed ^ 0xa0761d6478bd642full) {
  options_.max_iterations = config_.max_iterations;
}

ik::SolveResult ModelSolver::solve(const linalg::Vec3& target,
                                   const linalg::VecX& seed) {
  // Same seed contract as the real solvers: empty = start from the
  // zero configuration, anything else must match the chain's DOF.
  if (seed.size() != 0 && seed.size() != chain_.dof())
    throw std::invalid_argument("seed size does not match chain DOF");
  if (!std::isfinite(target.x) || !std::isfinite(target.y) ||
      !std::isfinite(target.z))
    throw std::invalid_argument("non-finite target");

  ++solves_;
  // Same contract as the real solvers' iteration head: kError aborts
  // the solve (the service's internal-error path), kDelay charges time.
  fault::inject("solver.iterate", clock());

  // Outcome and cost from this solver's private stream — the draws are
  // taken before the deadline check so a timed-out solve consumes the
  // same amount of randomness as a completed one (replay stability).
  const double u_converge = nextUnit(rng_);
  const double u_iters = nextUnit(rng_);
  const double u_tail = nextUnit(rng_);

  const bool converges = u_converge < config_.converge_probability;
  int iterations;
  if (converges) {
    const double draw =
        1.0 - config_.typical_iterations * std::log(1.0 - u_iters);
    iterations = std::clamp(static_cast<int>(draw), 1,
                            std::max(1, config_.max_iterations));
  } else {
    iterations = std::max(1, config_.max_iterations);
  }
  double cost_ms = iterations * config_.iteration_ms;
  if (u_tail < config_.tail_probability) cost_ms += config_.tail_ms;

  ik::SolveResult result;
  result.theta =
      seed.size() != 0 ? seed : linalg::VecX(chain_.dof());

  // The watchdog, modeled: stop *at* the deadline, report best-so-far.
  const bool bounded =
      deadline_ != std::chrono::steady_clock::time_point{};
  const auto now = clockNow();
  double charged_ms = cost_ms;
  if (bounded) {
    const double remaining_ms =
        std::chrono::duration<double, std::milli>(deadline_ - now).count();
    if (remaining_ms < cost_ms) {
      charged_ms = std::max(remaining_ms, 0.0);
      const double fraction = cost_ms <= 0.0 ? 0.0 : charged_ms / cost_ms;
      result.status = ik::Status::kTimedOut;
      result.iterations =
          std::max(1, static_cast<int>(iterations * fraction));
      result.error = options_.accuracy * 10.0;
      result.fk_evaluations = result.iterations * 2;
      result.speculation_load = result.iterations;
      if (const platform::Clock* c = clock())
        c->sleepFor(std::chrono::duration_cast<platform::Clock::duration>(
            std::chrono::duration<double, std::milli>(charged_ms)));
      return result;
    }
  }

  result.status =
      converges ? ik::Status::kConverged : ik::Status::kMaxIterations;
  result.iterations = iterations;
  result.error = converges ? options_.accuracy * (0.1 + 0.8 * u_iters)
                           : options_.accuracy * (2.0 + 8.0 * u_iters);
  result.fk_evaluations = iterations * 2;
  result.speculation_load = iterations;
  if (const platform::Clock* c = clock())
    c->sleepFor(std::chrono::duration_cast<platform::Clock::duration>(
        std::chrono::duration<double, std::milli>(charged_ms)));
  return result;
}

}  // namespace dadu::sim
