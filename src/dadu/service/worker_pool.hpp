// WorkerPool: the OS threads behind every threaded IkService lane.
//
// A lane (one IkService: queue, admission, seed cache, breaker, stats)
// owns no threads.  It attaches to a pool, and the pool's workers run
// the lane's dispatch step — tryPop, then IkService::step() — for
// every lane attached to it.  One pool behind several lanes is work-
// conserving: a worker that finds its last lane empty serves whichever
// lane has a backlog, so no thread idles while any lane queues (the
// software spelling of IKAcc's Parallel Search Scheduler, which hands
// work to whichever FKU is free).
//
// Dispatch loop: a worker scans the lanes round-robin, starting after
// the lane it last served, and serves the first lane with a job.  That
// rotation bounds how long a lane waits behind another's flood: a job
// at the head of an otherwise idle lane is picked up by the next
// worker to finish a step, so it completes within (pool size + 1)
// completions of its submit when steps cost alike.  When every lane is
// empty a worker sleeps on the pool's condition variable; a lane
// notify()s after every accepted push.
//
// Solvers are not thread-safe, so each worker builds one solver per
// attached lane, through that lane's factory, on its own thread at
// start-up — the same factory contract a dedicated worker thread had.
//
// Lifecycle: attach every lane, start(), and at shutdown stop() every
// lane before stop()ping the pool (IkService::stop returns only once
// its queue is empty and no worker is inside its step(), so the join
// that follows never strands a job).  Every attached lane must outlive
// the pool's threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "dadu/solvers/ik_solver.hpp"

namespace dadu::service {

class IkService;

class WorkerPool {
 public:
  WorkerPool() = default;
  ~WorkerPool();  ///< stop()

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Register `lane` and add its workerCount() to the pool size.
  /// Only before start(); throws std::logic_error after.
  void attach(IkService& lane);

  /// Spawn size() workers.  Call once, after every attach(); a pool
  /// with no lanes starts nothing.
  void start();

  /// A lane accepted a job: wake one sleeping worker.  Safe from any
  /// thread.
  void notify();

  /// Join the workers once every lane is empty.  Stop every attached
  /// lane first.  Idempotent.
  void stop();

  /// Worker threads this pool runs: the sum of the attached lanes'
  /// contributions.
  std::size_t size() const { return size_; }

 private:
  using Solvers = std::vector<std::unique_ptr<ik::IkSolver>>;

  void run(std::size_t worker);
  /// One round-robin scan starting after lane `last`: serve the first
  /// lane with a job and make it `last`.  False = every lane was empty.
  bool serveNext(Solvers& solvers, std::size_t& last);

  std::vector<IkService*> lanes_;
  std::size_t size_ = 0;

  std::mutex mutex_;
  std::condition_variable wake_;
  std::uint64_t signals_ = 0;  ///< guarded by mutex_: notify() count
  bool stopping_ = false;      ///< guarded by mutex_

  std::mutex join_mutex_;  ///< serializes stop()'s joins
  std::vector<std::thread> threads_;
};

}  // namespace dadu::service
