// Seeded deterministic task scheduler: the sim's only "thread".
//
// Every deferred action in a simulation — a client's next arrival, a
// worker's dispatch step, a reconnect timer, a frame delivery — is
// a task in one priority queue keyed (due time, seeded jitter,
// sequence number).  runOne() pops the earliest task, advances the
// SimClock to its due instant, and runs it; drain() repeats until the
// queue is empty.  Virtual time therefore moves in discrete hops from
// event to event, which is what makes simulating hours of traffic take
// seconds of wall time.
//
// Determinism and the seed: the (due, jitter, seq) key is a total
// order, so a given seed always replays the same interleaving —
// byte-identical traces.  The jitter term is a splitmix64 draw taken
// at post() time; tasks due at the *same* virtual instant (concurrent
// events, racing workers) are ordered by it, so different seeds
// genuinely explore different interleavings instead of degenerating to
// FIFO.  seq breaks the (astronomically unlikely) jitter tie and keeps
// the order total.
//
// Single-threaded by contract: post/postAt/runOne must all happen on
// one thread.  Tasks may post further tasks freely (that is how
// cooperative components reschedule themselves).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "dadu/platform/executor.hpp"
#include "dadu/sim/sim_clock.hpp"

namespace dadu::sim {

class SimExecutor final : public platform::Executor {
 public:
  /// `clock` must outlive the executor.  `seed` picks the interleaving
  /// among same-instant tasks (and nothing else).
  explicit SimExecutor(SimClock& clock, std::uint64_t seed = 0);

  void post(std::function<void()> task) override;
  void postAt(platform::Clock::time_point due,
              std::function<void()> task) override;
  const platform::Clock& clock() const override { return clock_; }
  SimClock& simClock() { return clock_; }

  /// Pop the earliest task, advance the clock to its due instant, run
  /// it.  False when the queue is empty (clock untouched).
  bool runOne();

  /// Run tasks until none remain or `max_tasks` have run (a runaway
  /// backstop, not a scheduling knob).  Returns the number executed.
  std::size_t drain(std::size_t max_tasks = SIZE_MAX);

  /// Run tasks while they are due at or before `until`; later tasks
  /// stay queued and the clock advances to exactly `until`.  Returns
  /// the number executed.
  std::size_t runUntil(platform::Clock::time_point until);

  std::size_t pending() const { return heap_.size(); }
  std::uint64_t executed() const { return executed_; }
  std::uint64_t seed() const { return seed_; }

 private:
  struct Entry {
    platform::Clock::time_point due;
    std::uint64_t jitter = 0;
    std::uint64_t seq = 0;
    std::function<void()> task;
  };
  /// Max-heap comparator inverted so the heap front is the min key.
  static bool later(const Entry& a, const Entry& b);

  std::uint64_t nextJitter();

  SimClock& clock_;
  std::uint64_t seed_ = 0;
  std::uint64_t rng_ = 0;  ///< splitmix64 state
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Entry> heap_;
};

}  // namespace dadu::sim
