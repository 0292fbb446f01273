// Small, separately tested pieces of ikbench: percentile
// rule, Poisson arrival schedule, answer verifier, host speed probe
// and the parser for the JSON counters `dadu serve` prints when it
// shuts down.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/linalg/vec.hpp"

namespace ikbench {

/// Nearest-rank percentile (p in (0, 100]) of `values`, which are
/// sorted in place.  Returns NaN when fewer than `min_beyond` samples
/// lie strictly beyond the chosen rank: a tail figure needs at least
/// ten samples behind it to mean anything, so p99 needs n >= 1000
/// (and a median n >= 20).
double percentile(std::vector<double>& values, double p,
                  std::size_t min_beyond = 10);

/// Smallest sample count for which percentile(p) is defined.
std::size_t minSamplesFor(double p, std::size_t min_beyond = 10);

/// The workload seed handed to the program's generators for benchmark
/// seed `seed`: a SplitMix64 finalizer.  workload::generateTask starts
/// stream i at `seed ^ (i * golden + c)` and SplitMix64 steps its state
/// by the same golden constant, so with a small seed the streams of
/// nearby tasks replay each other's draws, shifted (with seed 2, task
/// 6 repeats task 5 one draw on).  A mixed seed breaks the overlap
/// and gives every benchmark seed independent tasks.
std::uint64_t mixSeed(std::uint64_t seed);

/// Open-loop Poisson arrivals: the due offsets, in nanoseconds from
/// the phase start, of `count` arrivals at `rate_per_s`.  The same
/// (rate, count, seed) always gives the same schedule; the draw uses
/// std::mt19937_64 (fully specified by the standard) and an explicit
/// inverse transform, so it is identical across standard libraries.
std::vector<std::int64_t> poissonSchedule(double rate_per_s,
                                          std::size_t count,
                                          std::uint64_t seed);

/// Outcome of checking one returned joint vector against its task.
struct Verdict {
  bool ok = false;
  double fk_error = 0.0;  ///< ||target - f(theta)|| recomputed here
  std::string why;        ///< empty when ok
};

/// Re-run forward kinematics on `theta` and check that it reaches
/// `target` within `accuracy` and that the error the program reported
/// matches the recomputed one (to `tolerance`, absolute).
Verdict verifyAnswer(const dadu::kin::Chain& chain,
                     const dadu::linalg::Vec3& target, const double* theta,
                     std::size_t theta_len, double reported_error,
                     double accuracy, double tolerance = 1e-9);

/// Numeric records of a `dadu serve --stats-format json` dump, keyed by
/// metric name.  String-valued ("info") records land in `infos`.
struct ServeStats {
  std::map<std::string, double> values;
  std::map<std::string, std::string> infos;
  /// Value of `name`; throws std::out_of_range naming the metric when
  /// the server did not report it.
  double at(const std::string& name) const;
};

/// Parse the `[{"metric": ..., "value": ..., "unit": ...}, ...]` array
/// from `text` (lines before the array are ignored).  Throws
/// std::runtime_error when no array is found or a record is malformed.
ServeStats parseServeStats(const std::string& text);

/// The host's current speed: passes per second, over `seconds`, of a
/// reference kernel that lives in the benchmark (a serial 100-joint
/// walk of scalar sin/cos and 3x4 transform products, the shape of
/// one lane of the program's kinematics walk).  No change to the
/// program can move it, so the ratio of a program's rate to it
/// cancels the host's drift and keeps the program's own changes.
double hostSpeed(double seconds);

/// Arithmetic mean; 0 for an empty vector.
double mean(const std::vector<double>& values);

}  // namespace ikbench
