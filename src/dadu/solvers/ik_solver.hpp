// Abstract IK solver interface.
//
// A solver is constructed for one chain (so it can pre-allocate all
// per-iteration workspaces: high-DOF real-time control cannot afford
// per-solve allocation) and then solves any number of targets.
#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/vec.hpp"
#include "dadu/linalg/vecx.hpp"
#include "dadu/platform/clock.hpp"
#include "dadu/solvers/types.hpp"

namespace dadu::ik {

class IkSolver {
 public:
  virtual ~IkSolver() = default;

  /// Solve for `target`, starting from joint configuration `seed`.
  /// Throws std::invalid_argument on seed-size mismatch or non-finite
  /// target.
  virtual SolveResult solve(const linalg::Vec3& target,
                            const linalg::VecX& seed) = 0;

  /// Stable identifier ("jt-serial", "quick-ik", ...) used by benches
  /// and reports.
  virtual std::string name() const = 0;

  /// Arm (or clear, with the default time_point) the cooperative
  /// watchdog deadline for subsequent solve() calls — the per-request
  /// hook the serving layer uses on its per-worker solver instances.
  /// The base implementation ignores it: solvers without an iteration
  /// loop to check from simply run unbounded.
  virtual void setDeadline(std::chrono::steady_clock::time_point) {}

  /// Point the solver at a Clock (null = real steady clock).  Watchdog
  /// deadline checks read this clock, so a solver handed a SimClock
  /// times out on simulated time.  Owned by the caller; must outlive
  /// the solver's use of it.
  void setClock(const platform::Clock* clock) { clock_ = clock; }
  const platform::Clock* clock() const { return clock_; }

  virtual const kin::Chain& chain() const = 0;
  virtual const SolveOptions& options() const = 0;

 protected:
  /// One read of the solver's clock through the seam.
  platform::Clock::time_point clockNow() const {
    return platform::clockNow(clock_);
  }

 private:
  const platform::Clock* clock_ = nullptr;
};

}  // namespace dadu::ik
