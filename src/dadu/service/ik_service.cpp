#include "dadu/service/ik_service.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "dadu/fault/fault.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"
#include "dadu/platform/timer.hpp"

namespace dadu::service {
namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

IkService::IkService(SolverFactory factory, ServiceConfig config,
                     WorkerPool* pool)
    : config_(config),
      factory_(std::move(factory)),
      queue_(config.queue_capacity),
      cache_(config.cache),
      breaker_(config.breaker),
      counters_(kCounterCount, config.stat_shards),
      queue_hist_(config.latency),
      solve_hist_(config.latency),
      e2e_hist_(config.latency) {
  if (!factory_) throw std::invalid_argument("IkService: null factory");
  worker_count_ = config_.workers;
  if (worker_count_ == 0)
    worker_count_ = std::max(1u, std::thread::hardware_concurrency());
  if (config_.executor) {
    if (pool)
      throw std::invalid_argument(
          "IkService: a WorkerPool lane cannot run on an executor");
    // Cooperative mode: no threads.  Workers are dispatch-step state
    // machines driven by the executor; the vector never reallocates
    // (steps capture indices, not iterators).
    coop_workers_ = std::vector<CoopWorker>(worker_count_);
    return;
  }
  if (!pool) {
    own_pool_ = std::make_unique<WorkerPool>();
    pool = own_pool_.get();
  }
  pool_ = pool;
  pool_->attach(*this);
  // A shared pool's owner starts it once every lane has attached.
  if (own_pool_) pool_->start();
}

IkService::~IkService() { stop(Drain::kDrainPending); }

std::future<Response> IkService::submit(Request request) {
  auto promise = std::make_shared<std::promise<Response>>();
  std::future<Response> future = promise->get_future();
  submitInternal(std::move(request),
                 [promise](Response&& response, std::exception_ptr error) {
                   if (error)
                     promise->set_exception(error);
                   else
                     promise->set_value(std::move(response));
                 });
  return future;
}

void IkService::submit(Request request, Completion done) {
  if (!done) throw std::invalid_argument("IkService::submit: null callback");
  submitInternal(
      std::move(request),
      [done = std::move(done)](Response&& response,
                               std::exception_ptr error) mutable {
        if (error) {
          // Callbacks have no exception channel: fold the solver
          // exception into a typed reject so the caller still hears
          // back exactly once.
          Response failed;
          failed.status = ResponseStatus::kRejected;
          failed.reject_reason = RejectReason::kInternalError;
          try {
            std::rethrow_exception(error);
          } catch (const std::exception& e) {
            failed.message = e.what();
          } catch (...) {
            failed.message = "unknown solver exception";
          }
          done(std::move(failed));
        } else {
          done(std::move(response));
        }
      });
}

void IkService::submitInternal(Request request, JobCompletion finish) {
  counters_.add(kSubmitted);

  Job job;
  job.enqueued = now();

  // Overload brownout gate: the breaker fast-rejects while Open and
  // sheds low-priority work while the queue is deep — both *before*
  // the queue is touched, so an overloaded service answers "back off"
  // in microseconds.  Disabled breaker = one branch.
  if (breaker_.enabled()) {
    switch (breaker_.admit(request.priority, queue_.size(), job.enqueued)) {
      case CircuitBreaker::Admit::kAccept:
        break;
      case CircuitBreaker::Admit::kProbe:
        job.probe = true;
        break;
      case CircuitBreaker::Admit::kRejectOpen:
        counters_.add(kRejectedOverloaded);
        rejectNow(finish, RejectReason::kOverloaded);
        return;
      case CircuitBreaker::Admit::kShedLow:
        counters_.add(kShedLowPriority);
        rejectNow(finish, RejectReason::kOverloaded);
        return;
    }
  }

  if (request.deadline_ms > 0.0) {
    job.deadline =
        job.enqueued + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double, std::milli>(
                               request.deadline_ms));
    job.has_deadline = true;
  }
  job.request = std::move(request);
  job.finish = std::move(finish);

  switch (queue_.tryPush(std::move(job))) {
    case PushResult::kAccepted:
      // Cooperative mode has no parked threads to notify: posting the
      // dispatch steps here is the pool's notify().
      if (config_.executor)
        scheduleCoopWorkers();
      else
        pool_->notify();
      break;
    case PushResult::kFull:
      // tryPush did not move from `job` — fail its completion here.
      rejectJob(job, RejectReason::kQueueFull);
      break;
    case PushResult::kClosed:
      rejectJob(job, RejectReason::kShutdown);
      break;
  }
}

void IkService::rejectNow(JobCompletion& finish, RejectReason reason) {
  switch (reason) {
    case RejectReason::kQueueFull:
      counters_.add(kRejectedQueueFull);
      break;
    case RejectReason::kShutdown:
      counters_.add(kRejectedShutdown);
      break;
    default:
      break;  // kOverloaded counted at the admission site
  }
  Response response;
  response.status = ResponseStatus::kRejected;
  response.reject_reason = reason;
  finish(std::move(response), nullptr);
}

void IkService::rejectJob(Job& job, RejectReason reason) {
  // A probe that never executes tells the breaker nothing good.
  if (job.probe) breaker_.onProbeResult(false, now());
  rejectNow(job.finish, reason);
}

std::unique_ptr<ik::IkSolver> IkService::makeSolver() const {
  std::unique_ptr<ik::IkSolver> solver = factory_();
  solver->setClock(config_.clock);
  return solver;
}

bool IkService::serveOne(ik::IkSolver& solver) {
  Job job;
  {
    // Pop and count under one lock: stop() never sees the job neither
    // queued nor in flight.
    std::lock_guard<std::mutex> lock(in_flight_mutex_);
    if (!queue_.tryPop(job)) return false;
    ++in_flight_;
  }
  step(solver, std::move(job));
  std::lock_guard<std::mutex> lock(in_flight_mutex_);
  if (--in_flight_ == 0) idle_.notify_all();
  return true;
}

void IkService::step(ik::IkSolver& solver, Job job) {
  // Discard-mode shutdown: anything dequeued after the discard flag is
  // up gets rejected, never solved.  Without this check a worker racing
  // stop()'s close()->drain() window could still execute pending work
  // the caller asked to be dropped.
  if (discard_.load(std::memory_order_acquire)) {
    rejectJob(job, RejectReason::kShutdown);
    return;
  }
  process(solver, std::move(job));
}

ik::IkSolver& IkService::coopSolver(CoopWorker& w) {
  if (!w.solver) w.solver = makeSolver();
  return *w.solver;
}

void IkService::scheduleCoopWorkers() {
  // Single-threaded by the executor-mode contract: no locking needed
  // around the worker state machines.
  for (std::size_t i = 0; i < coop_workers_.size(); ++i) {
    if (queue_.size() == 0) return;
    CoopWorker& w = coop_workers_[i];
    if (w.busy) continue;
    w.busy = true;
    config_.executor->post([this, i] { coopStep(i); });
  }
}

void IkService::coopStep(std::size_t worker) {
  CoopWorker& w = coop_workers_[worker];
  Job job;
  // An empty queue also retires a step posted before stop(): stop()
  // leaves nothing queued, whichever drain mode it ran.
  if (!queue_.tryPop(job)) {
    w.busy = false;
    return;
  }
  step(coopSolver(w), std::move(job));
  if (queue_.size() > 0) {
    // Yield through the executor between requests (rather than looping
    // inline) so submissions and other workers interleave exactly as
    // the scheduler's seed decides.
    config_.executor->post([this, worker] { coopStep(worker); });
  } else {
    w.busy = false;
  }
}

void IkService::process(ik::IkSolver& solver, Job job) {
  // Fault point: a worker pausing between dequeue and the deadline
  // check — the stall that turns a healthy queue wait into an expiry.
  if (fault::FaultInjector::armed()) fault::inject("service.worker.stall", config_.clock);

  const Clock::time_point picked_up = now();
  const double queue_ms = msBetween(job.enqueued, picked_up);
  obs::ObsSink* const sink = config_.sink.get();

  if (job.has_deadline && picked_up > job.deadline) {
    counters_.add(kDeadlineExpired);
    if (sink) sink->onCount("deadline_expired", 1);
    if (job.probe) breaker_.onProbeResult(false, picked_up);
    Response response;
    response.status = ResponseStatus::kDeadlineExceeded;
    response.queue_ms = queue_ms;
    job.finish(std::move(response), nullptr);
    return;
  }

  // Seed selection: explicit seed, cache hit (preferred when allowed),
  // or the chain's zero configuration as the empty-seed default.
  const bool cache_allowed =
      config_.enable_seed_cache && job.request.use_seed_cache;
  linalg::VecX seed;
  bool from_cache = false;
  if (cache_allowed && cache_.lookup(job.request.target, seed)) {
    from_cache = true;
    // Fault point: a poisoned warm-start seed — finite garbage that
    // must degrade to a slow solve, never a crash or NaN result.
    if (fault::FaultInjector::armed()) {
      const fault::Decision d = fault::decide("service.seed_cache.seed");
      if (d.action == fault::Action::kCorrupt)
        fault::corruptDoubles(seed.data(), seed.size(), d.corrupt_seed);
    }
  } else if (!job.request.seed.empty()) {
    seed = std::move(job.request.seed);
  } else {
    seed = solver.chain().zeroConfiguration();
  }

  // Watchdog: arm (or clear) the solver's cooperative deadline so a
  // runaway solve surfaces kTimedOut with its best-so-far iterate
  // instead of outliving the request's deadline unbounded.
  solver.setDeadline(job.has_deadline ? job.deadline
                                      : Clock::time_point{});

  try {
    platform::WallTimer timer(config_.clock);
    // Fault point: a slow solve (kDelay, charged to solve_ms) or a
    // solver throw (kError) — inside the try so the error takes the
    // exact path a real solver exception takes.
    if (fault::FaultInjector::armed()) fault::inject("service.worker.solve", config_.clock);
    ik::SolveResult result = solver.solve(job.request.target, seed);
    const double solve_ms = timer.elapsedMs();

    if (result.converged() && cache_allowed)
      cache_.insert(job.request.target, result.theta);

    const bool timed_out = result.status == ik::Status::kTimedOut;
    if (breaker_.enabled()) {
      breaker_.recordSolve(solve_ms, now());
      // A probe that ran to a verdict is a success unless the watchdog
      // had to kill it — a timed-out probe means the service is still
      // drowning.
      if (job.probe) breaker_.onProbeResult(!timed_out, now());
    }

    // Lock-free bookkeeping: relaxed sharded counters + histograms.
    counters_.add(kSolved);
    if (result.converged()) counters_.add(kConverged);
    if (timed_out) counters_.add(kTimedOutSolves);
    counters_.add(kIterations, static_cast<std::uint64_t>(result.iterations));
    counters_.add(kFkEvaluations,
                  static_cast<std::uint64_t>(result.fk_evaluations));
    counters_.add(kSpeculationLoad,
                  static_cast<std::uint64_t>(result.speculation_load));
    queue_hist_.record(queue_ms);
    solve_hist_.record(solve_ms);
    e2e_hist_.record(queue_ms + solve_ms);

    if (sink) {
      sink->onSpan("queue", queue_ms);
      sink->onSpan("solve", solve_ms);
      sink->onCount("iterations", static_cast<std::uint64_t>(result.iterations));
      sink->onCount("fk_evaluations",
                    static_cast<std::uint64_t>(result.fk_evaluations));
      sink->onCount("speculation_load",
                    static_cast<std::uint64_t>(result.speculation_load));
    }

    Response response;
    response.status = ResponseStatus::kSolved;
    response.result = std::move(result);
    response.queue_ms = queue_ms;
    response.solve_ms = solve_ms;
    response.seeded_from_cache = from_cache;
    job.finish(std::move(response), nullptr);
  } catch (...) {
    // Solver precondition failures (seed-size mismatch, non-finite
    // target) surface through the completion, not the worker thread.
    if (job.probe) breaker_.onProbeResult(false, now());
    counters_.add(kInternalErrors);
    Response failed;
    job.finish(std::move(failed), std::current_exception());
  }
}

void IkService::stop(Drain mode) {
  std::lock_guard<std::mutex> lock(stop_mutex_);
  stopped_.store(true);
  // Order matters for discard: raise the flag BEFORE closing the
  // queue.  A worker that pops a job after close() then observes
  // discard_ and rejects instead of solving; stop()'s own drain below
  // rejects whatever the workers never touched.  Either way no pending
  // job is executed after a discard stop.
  if (mode == Drain::kDiscardPending)
    discard_.store(true, std::memory_order_release);
  queue_.close();
  if (config_.after_close_hook) config_.after_close_hook();
  if (mode == Drain::kDiscardPending) {
    for (Job& job : queue_.drain())
      rejectJob(job, RejectReason::kShutdown);
  }
  if (config_.executor) {
    // Cooperative mode: no threads to join.  Finish whatever is still
    // queued inline — drain semantics solve it, discard already
    // rejected it above — so a step posted earlier finds the queue
    // empty and retires.
    if (mode == Drain::kDrainPending && !coop_workers_.empty()) {
      Job job;
      while (queue_.tryPop(job))
        step(coopSolver(coop_workers_[0]), std::move(job));
    }
    return;
  }
  // Threaded mode: the pool's workers finish the queue (drain) or
  // reject what they dequeued after the discard flag.  Wait until the
  // queue is empty and no worker is inside step() for this service;
  // a shared pool keeps serving the other lanes meanwhile.
  {
    std::unique_lock<std::mutex> idle_lock(in_flight_mutex_);
    idle_.wait(idle_lock,
               [&] { return in_flight_ == 0 && queue_.size() == 0; });
  }
  if (own_pool_) own_pool_->stop();
}

ServiceStats IkService::stats() const {
  const std::vector<std::uint64_t> totals = counters_.snapshot();
  ServiceStats snapshot;
  snapshot.submitted = totals[kSubmitted];
  snapshot.rejected_queue_full = totals[kRejectedQueueFull];
  snapshot.rejected_shutdown = totals[kRejectedShutdown];
  snapshot.rejected_overloaded = totals[kRejectedOverloaded];
  snapshot.shed_low_priority = totals[kShedLowPriority];
  snapshot.deadline_expired = totals[kDeadlineExpired];
  snapshot.solved = totals[kSolved];
  snapshot.converged = totals[kConverged];
  snapshot.timed_out = totals[kTimedOutSolves];
  snapshot.internal_errors = totals[kInternalErrors];
  snapshot.total_iterations = static_cast<long long>(totals[kIterations]);
  snapshot.total_fk_evaluations =
      static_cast<long long>(totals[kFkEvaluations]);
  snapshot.total_speculation_load =
      static_cast<long long>(totals[kSpeculationLoad]);

  snapshot.queue_hist = queue_hist_.snapshot();
  snapshot.solve_hist = solve_hist_.snapshot();
  snapshot.e2e_hist = e2e_hist_.snapshot();
  snapshot.total_queue_ms = snapshot.queue_hist.sum;
  snapshot.total_solve_ms = snapshot.solve_hist.sum;

  snapshot.breaker = breaker_.snapshot();
  snapshot.spec_backend = kin::activeSpecBackendName();

  const SeedCacheStats cache = cache_.stats();
  snapshot.cache_hits = cache.hits;
  snapshot.cache_misses = cache.misses;
  snapshot.cache_inserts = cache.inserts;
  snapshot.cache_evictions = cache.evictions;
  return snapshot;
}

}  // namespace dadu::service
