// Bounded MPMC request queue with backpressure.
//
// The admission-control point of the serving layer: producers tryPush
// and are *never* blocked — a full queue rejects immediately so the
// caller can shed load (the alternative, blocking producers, turns an
// overload into unbounded latency for everyone).  Consumers never
// block either: tryPop() returns false on an empty queue, and the
// WorkerPool (worker_pool.hpp) decides when its workers sleep, across
// every lane's queue at once.
//
// Implementation is a mutex around a deque: the queue hand-off is
// microseconds against solves that are hundreds of microseconds to
// milliseconds, so lock-free buys nothing here and a mutex keeps the
// semantics (close/drain interplay) easy to verify — and trivially
// ThreadSanitizer-clean.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <vector>

#include "dadu/service/request.hpp"

namespace dadu::service {

/// How a finished job reports back: exactly one invocation per job,
/// from whichever thread finished it (a worker for solved/deadline
/// outcomes, the submitter for admission rejects, the stop() caller
/// for discard drains).  `error` is non-null iff the solver threw — the
/// future submit path rethrows it, the callback path folds it into a
/// Rejected{kInternalError} response.
using JobCompletion = std::function<void(Response&&, std::exception_ptr)>;

/// One queued unit of work: the request, the completion that resolves
/// it, and the submission-time bookkeeping the worker needs.
struct Job {
  Request request;
  JobCompletion finish;
  std::chrono::steady_clock::time_point enqueued{};
  std::chrono::steady_clock::time_point deadline{};
  bool has_deadline = false;
  /// Admitted as a half-open circuit-breaker probe: its fate must be
  /// reported back to the breaker exactly once (success, failure, or
  /// "never executed" = failure).
  bool probe = false;
};

/// Outcome of a push attempt.
enum class PushResult {
  kAccepted,  ///< job is queued
  kFull,      ///< at capacity; job untouched, caller keeps the promise
  kClosed,    ///< queue closed; job untouched
};

class BoundedQueue {
 public:
  /// `capacity` = maximum queued (not yet popped) jobs; at least 1.
  explicit BoundedQueue(std::size_t capacity);

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: moves from `job` only on kAccepted.
  PushResult tryPush(Job&& job);

  /// Non-blocking pop: false when the queue is empty (or closed and
  /// drained) — never waits.  Closed-but-nonempty queues keep serving
  /// pops so a shutdown can drain.
  bool tryPop(Job& out);

  /// Stop accepting pushes.  Queued jobs remain poppable.  Idempotent.
  void close();

  /// Remove and return every queued job (used by discard-mode shutdown
  /// to fail pending promises).  Usually preceded by close().
  std::vector<Job> drain();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }
  bool closed() const;

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<Job> jobs_;
  bool closed_ = false;
};

}  // namespace dadu::service
