// IkService: a long-lived, asynchronous IK serving layer.
//
// Every pre-existing entry point (IkEngine::solveBatch,
// dadu::solveBatchParallel) is a synchronous one-shot call that spins
// up threads per invocation and forgets everything between calls.  The
// service is the opposite: construct once, submit() any number of
// requests from any number of threads, get a future per request.
//
//   - workers: `workers` threads of a WorkerPool (worker_pool.hpp) —
//     the service's own private pool, or its contribution to a pool
//     shared with other lanes (SpecRouter).  Each worker owns a
//     private solver built by the caller's factory (solvers carry
//     per-solve workspaces and are not thread-safe by design — same
//     contract as the batch runner);
//   - admission control: a bounded MPMC queue; a full queue rejects at
//     submit() with Rejected{QueueFull} instead of blocking forever;
//   - per-request deadlines: a request still queued past its deadline
//     is dropped unexecuted and reported as DeadlineExceeded;
//   - warm-start seed cache: converged solutions are indexed by
//     workspace target; a request whose target lands near a cached
//     solution is seeded from it (typically collapsing the iteration
//     count) and converged results are inserted back;
//   - observability: counters live in lock-free sharded slots
//     (obs::ShardedCounters), latency distributions in log-bucket
//     histograms (queue / solve / end-to-end) — the submit and solve
//     hot paths take no lock for bookkeeping.  An optional ObsSink
//     receives per-event spans (queue wait, solve) and solver-level
//     counters (iterations, FK evaluations, speculation load).
//
// Completion model: the native submit path takes a completion callback
// invoked exactly once from whichever thread finishes the request (a
// worker, the submitter on admission reject, the stop() caller on a
// discard drain).  Event-driven callers — the dadu_net TCP server —
// use it directly so no thread ever parks on a future; the
// future-returning submit overload is a thin wrapper that fulfills a
// promise from the callback.
//
// Thread-safety contract: submit(), stats(), queueDepth() are safe
// from any thread.  stop() may be called from any one thread (and is
// idempotent); the destructor stops with drain semantics.  Futures may
// be waited on from anywhere; each resolves exactly once.  Completion
// callbacks must be thread-safe with respect to their own captures and
// must not block for long (they run on the worker hot path) nor call
// stop() (deadlock: stop() waits for the calling worker's step).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "dadu/obs/histogram.hpp"
#include "dadu/obs/sharded_counters.hpp"
#include "dadu/obs/sink.hpp"
#include "dadu/platform/clock.hpp"
#include "dadu/platform/executor.hpp"
#include "dadu/service/circuit_breaker.hpp"
#include "dadu/service/queue.hpp"
#include "dadu/service/request.hpp"
#include "dadu/service/seed_cache.hpp"
#include "dadu/service/service_stats.hpp"
#include "dadu/service/worker_pool.hpp"
#include "dadu/solvers/ik_solver.hpp"

namespace dadu::service {

/// Factory producing one solver instance per worker.  Called once from
/// each pool worker thread at startup — it must be safe to invoke
/// concurrently (same contract as the batch runner's factory).
using SolverFactory = std::function<std::unique_ptr<ik::IkSolver>()>;

struct ServiceConfig {
  /// Worker threads (0 = hardware concurrency): the size of the
  /// service's private pool, or its contribution to a shared one.
  std::size_t workers = 0;
  std::size_t queue_capacity = 1024;
  bool enable_seed_cache = true;
  SeedCacheConfig cache;
  /// Stat shards for the lock-free counters (0 = sized to hardware
  /// concurrency).  More shards = less cross-worker cache traffic.
  std::size_t stat_shards = 0;
  /// Bucket ladder shared by the queue/solve/end-to-end histograms.
  obs::LatencyHistogram::Config latency;
  /// Optional per-event sink (trace spans + solver counters).  Null =
  /// no per-event overhead beyond one branch.  Must be thread-safe.
  std::shared_ptr<obs::ObsSink> sink;
  /// Overload circuit breaker (disabled by default — zero overhead).
  /// See circuit_breaker.hpp for the state machine and thresholds.
  CircuitBreakerConfig breaker;
  /// Test seam: invoked by stop() between closing the queue and
  /// draining it — the race window the discard path must tolerate.
  /// Never set in production.
  std::function<void()> after_close_hook;
  /// Clock seam (null = real steady clock).  Every timestamp the
  /// service takes — enqueue stamps, deadline arithmetic, breaker
  /// feeds, queue/solve/e2e latencies, the solver watchdog — reads
  /// this clock, so the whole service runs under virtual time when the
  /// deterministic simulation harness provides a SimClock.  Production
  /// cost: one branch + virtual call on paths that already pay a
  /// syscall for the real clock read.
  const platform::Clock* clock = nullptr;
  /// Execution seam (null = WorkerPool threads, the production path).
  /// With an executor the service spawns NO threads: `workers` becomes
  /// a count of cooperative logical workers whose dispatch steps are
  /// posted as executor tasks.  Each step runs the same step() a pool
  /// worker runs, so per-request semantics (admission,
  /// deadlines, breaker, statuses) are identical.  Single-threaded by
  /// contract: submit/stop must be called from the executor's thread,
  /// and the executor must outlive the service.
  platform::Executor* executor = nullptr;
};

class IkService {
 public:
  /// With a null `pool`, starts a private WorkerPool of
  /// `config.workers` threads with this service as its only lane (no
  /// threads in executor mode).  Otherwise the service is a lane of
  /// the shared, not yet started `pool` (which must outlive it): it
  /// spawns no threads and adds `config.workers` to the pool's size.
  /// Throws std::invalid_argument on a null factory, or on a pool
  /// together with an executor seam.
  explicit IkService(SolverFactory factory, ServiceConfig config = {},
                     WorkerPool* pool = nullptr);
  ~IkService();  ///< stop(Drain::kDrainPending)

  IkService(const IkService&) = delete;
  IkService& operator=(const IkService&) = delete;

  /// Completion invoked exactly once per submitted request.  Solver
  /// exceptions arrive as Rejected{kInternalError} with the what() text
  /// in Response::message (callbacks have no exception channel).
  using Completion = std::function<void(Response)>;

  /// Submit one request; never blocks.  The future resolves to a
  /// Response: kSolved once a worker ran the solver, or an immediate
  /// Rejected{QueueFull}/Rejected{Shutdown} when admission fails, or
  /// kDeadlineExceeded if the deadline passed while queued.  Solver
  /// exceptions rethrow from future::get().
  std::future<Response> submit(Request request);

  /// Callback flavour of submit(): identical admission, deadline and
  /// solve semantics (bit-identical Response for the same request),
  /// but the outcome is delivered by invoking `done` instead of
  /// resolving a future — no thread ever blocks waiting.  `done` may
  /// run on the submitting thread (admission rejects) or a worker.
  /// Throws std::invalid_argument on a null callback.
  void submit(Request request, Completion done);

  /// What happens to still-queued requests at stop().
  enum class Drain {
    kDrainPending,    ///< workers finish every queued request first
    kDiscardPending,  ///< queued requests resolve Rejected{Shutdown} now
  };

  /// Close admission, handle queued requests per `mode`, and return
  /// once the queue is empty and no worker is inside this service's
  /// step() (then join the private pool, if any).  Idempotent;
  /// concurrent callers serialize, later modes are no-ops.  In-flight
  /// solves always run to completion.  In discard mode a request a
  /// worker dequeues after the close is rejected without solving —
  /// pending work is never executed past a discard stop.
  void stop(Drain mode = Drain::kDrainPending);
  bool stopped() const { return stopped_.load(); }

  ServiceStats stats() const;
  /// stats() flattened for the exporters (Prometheus / JSON / text).
  obs::MetricsSnapshot metrics() const { return toMetricsSnapshot(stats()); }
  const SeedCache& seedCache() const { return cache_; }
  const CircuitBreaker& breaker() const { return breaker_; }
  /// Workers this service contributes: its private pool's size, its
  /// share of a shared pool, or its cooperative workers.
  std::size_t workerCount() const { return worker_count_; }
  std::size_t queueDepth() const { return queue_.size(); }
  const ServiceConfig& config() const { return config_; }

 private:
  /// Logical counter ids for the sharded stat slots.
  enum Counter : std::size_t {
    kSubmitted,
    kRejectedQueueFull,
    kRejectedShutdown,
    kRejectedOverloaded,
    kShedLowPriority,
    kDeadlineExpired,
    kSolved,
    kConverged,
    kTimedOutSolves,
    kInternalErrors,
    kIterations,
    kFkEvaluations,
    kSpeculationLoad,
    kCounterCount,
  };

  friend class WorkerPool;

  /// One cooperative logical worker (executor mode): the state a pool
  /// worker keeps on its stack, parked in a struct between posted
  /// dispatch steps.
  struct CoopWorker {
    std::unique_ptr<ik::IkSolver> solver;  ///< created on first step
    bool busy = false;                     ///< a step is posted or running
  };

  platform::Clock::time_point now() const {
    return platform::clockNow(config_.clock);
  }

  void submitInternal(Request request, JobCompletion finish);
  /// Pool worker start-up: one solver from the factory, on the clock.
  std::unique_ptr<ik::IkSolver> makeSolver() const;
  /// Pool worker: tryPop, then step() — false when the queue was
  /// empty.  Counted in `in_flight_` from before the pop until the
  /// step returns, which is what stop() waits out.
  bool serveOne(ik::IkSolver& solver);
  /// The one dispatch step both execution modes share: reject a job
  /// dequeued during a discard stop, otherwise process() it.
  void step(ik::IkSolver& solver, Job job);
  /// Retire one request: deadline check, seed, solve, bookkeeping and
  /// exactly one completion.  The only path that solves a request.
  void process(ik::IkSolver& solver, Job job);
  void rejectNow(JobCompletion& finish, RejectReason reason);
  /// Reject a job that may be a half-open probe: the breaker hears a
  /// probe failure ("never executed"), then the completion fires.
  void rejectJob(Job& job, RejectReason reason);
  /// Executor mode: post a dispatch step for each idle worker while
  /// work is queued.
  void scheduleCoopWorkers();
  /// Executor mode: tryPop, step(), then re-post while work remains —
  /// the cooperative spelling of one serveOne().
  void coopStep(std::size_t worker);
  ik::IkSolver& coopSolver(CoopWorker& w);

  ServiceConfig config_;
  SolverFactory factory_;
  BoundedQueue queue_;
  SeedCache cache_;
  CircuitBreaker breaker_;
  std::size_t worker_count_ = 0;
  std::vector<CoopWorker> coop_workers_;  ///< executor mode only
  /// Threaded mode: the pool whose workers serve this queue (private
  /// or shared); null in executor mode.
  WorkerPool* pool_ = nullptr;

  /// Pool workers inside serveOne() for this service.  Changed and
  /// read under `in_flight_mutex_` so stop() can wait for "queue empty
  /// and nothing in flight" without a lost wakeup.
  std::mutex in_flight_mutex_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;

  std::atomic<bool> stopped_{false};
  /// Discard-mode shutdown: set (before the queue closes) to tell
  /// workers to reject anything they dequeue from then on instead of
  /// solving it.  Fixes the close()->drain() race where a worker could
  /// pop and *solve* a pending job that discard semantics promised to
  /// fail fast.
  std::atomic<bool> discard_{false};
  std::mutex stop_mutex_;  ///< serializes stop() / joins

  // Lock-free statistics: sharded counters + latency histograms, all
  // written with relaxed atomics on the hot path, aggregated in
  // stats().  No mutex anywhere on submit/process.
  obs::ShardedCounters counters_;
  obs::LatencyHistogram queue_hist_;
  obs::LatencyHistogram solve_hist_;
  obs::LatencyHistogram e2e_hist_;

  /// Standalone threaded mode only.  Declared last: its workers read
  /// every member above.
  std::unique_ptr<WorkerPool> own_pool_;
};

}  // namespace dadu::service
