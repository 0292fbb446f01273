// Shared pieces of ikbench: options, the metric report,
// the pass/fail tally, and the per-workload entry points.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "dadu/kinematics/chain.hpp"
#include "dadu/workload/targets.hpp"

namespace ikbench {

struct PhaseResult;

inline constexpr double kAccuracy = 1e-2;  // paper default (SolveOptions)
inline constexpr int kSpeculations = 64;   // paper default K

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;           ///< benchmark seed, as given
  std::uint64_t workload_seed = 0;  ///< mixSeed(seed): drives every input
  double seconds = 0.0;
  bool trace = false;
  std::string dadu;         ///< path of the `dadu` binary under test
  double light_rps = 0.0;   ///< open-loop rates (absolute, per workload)
  double heavy_rps = 0.0;
  std::string spans_dir;    ///< traced pass writes its spans here
};

/// Ordered metric lists: the gated ones go in the result object; the
/// reference ones, too unsteady on a shared host to gate a change, are
/// printed on the line before it.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void addReference(const std::string& name, double value,
                    const std::string& unit);
  std::string json() const { return render(entries_); }
  std::string referenceJson() const { return render(reference_); }
  bool hasReference() const { return !reference_.empty(); }

 private:
  struct Entry {
    std::string name, unit;
    double value;
  };
  static std::string render(const std::vector<Entry>& entries);
  std::vector<Entry> entries_, reference_;
};

/// Outcome counters across every phase of a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool books_balance = true;
  std::vector<std::string> failures;  ///< first few reasons

  void add(std::uint64_t attempted, std::uint64_t failed,
           const std::vector<std::string>& why);
  void add(const PhaseResult& phase);
};

/// Shortest round-trip decimal form of `v`.
std::string num(double v);

/// Percentile that must exist: a phase too short to support it is an
/// error in the benchmark, not a number to report.
double pct(std::vector<double> values, double p, const std::string& what);

/// Length of an open-loop phase at `rate`: at least `seconds`, and long
/// enough to give a p99 its samples (plus 10% to spare).
double openLoopSeconds(double seconds, double rate);

/// Hardware threads of this host (at least 1).
unsigned hostThreads();

/// Median of `values` (copied); NaN when empty.
double median(std::vector<double> values);

/// The gated timings are restated at a reference host speed.  This
/// host's speed drifts by 10-20% between runs minutes apart, for the
/// program and for hostSpeed()'s kernel alike, which no length of run
/// averages out.  So the benchmark probes hostSpeed() on its own thread
/// next to the work it times, and scales each figure by kRefHostSpeed
/// over the speed measured: the figure the program would give on a
/// host that runs the reference kernel at kRefHostSpeed.  The raw
/// medians are printed for reference.
inline constexpr double kRefHostSpeed = 5.0e5;  ///< passes/s, ~a 2.1 GHz Xeon vCPU
inline constexpr double kSpeedProbeS = 0.05;    ///< one hostSpeed() probe

/// Host speed over a slice, from the probes before and after it.
inline double bracketSpeed(double before, double after) {
  return std::sqrt(before * after);
}
inline double rateAtRefSpeed(double rate, double speed) {
  return rate * kRefHostSpeed / speed;
}
inline double timeAtRefSpeed(double seconds, double speed) {
  return seconds * speed / kRefHostSpeed;
}

/// Micro-timings of each layer's public entry points (microseconds).
struct LayerTimes {
  double codec_us = 0.0;   ///< net: request + response encode/decode
  double head_us = 0.0;    ///< solvers: one jtIterationHead
  double walk_us = 0.0;    ///< kinematics: evaluateLanes over K lanes
  double grouped_walk_us_per_lane = 0.0;  ///< evaluateGrouped, 16 x K @ 50
};

/// Solver head and K-lane walk at `chain`'s DOF (microseconds per
/// call), on the first 64 of `tasks`.
struct HeadWalkUs {
  double head_us = 0.0;
  double walk_us = 0.0;
};
HeadWalkUs timeHeadWalk(const dadu::kin::Chain& chain,
                        const std::vector<dadu::workload::IkTask>& tasks);

/// Time every layer at `chain`'s DOF on the workload's own tasks.
LayerTimes timeLayers(const dadu::kin::Chain& chain,
                      const std::vector<dadu::workload::IkTask>& tasks,
                      std::uint64_t seed);

void runSolve100(const Options& o, Report& report, Tally& tally);
void runWire(const Options& o, Report& report, Tally& tally);

}  // namespace ikbench
