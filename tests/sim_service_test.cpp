// IkService under the simulation seams: the same service that runs a
// thread pool in production here runs as cooperative tasks on a
// SimExecutor with a SimClock — no OS threads, no real sleeps, fully
// deterministic.  These tests pin the executor-mode contract: identical
// per-request semantics (admission, deadlines, drain/discard)
// with time that only moves when the simulation says so.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <vector>

#include "dadu/kinematics/presets.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/sim/model_solver.hpp"
#include "dadu/sim/sim_clock.hpp"
#include "dadu/sim/sim_executor.hpp"

namespace dadu::service {
namespace {

/// A service + sim harness on one stack: clock, executor, service
/// wired together, completions collected in submit order.
struct Harness {
  sim::SimClock clock;
  sim::SimExecutor exec;
  IkService service;
  std::vector<Response> responses;

  explicit Harness(ServiceConfig cfg,
                   sim::ModelSolverConfig solver = {},
                   std::uint64_t seed = 1)
      : exec(clock, seed),
        service(
            [chain = kin::makeSerpentine(6), solver] {
              return std::make_unique<sim::ModelSolver>(chain, solver);
            },
            patch(std::move(cfg), clock, exec)) {}

  static ServiceConfig patch(ServiceConfig cfg, const sim::SimClock& clock,
                             sim::SimExecutor& exec) {
    cfg.clock = &clock;
    cfg.executor = &exec;
    cfg.stat_shards = 1;
    return cfg;
  }

  void submit(Request request) {
    const std::size_t slot = responses.size();
    responses.emplace_back();
    service.submit(std::move(request),
                   [this, slot](Response r) { responses[slot] = std::move(r); });
  }
};

Request requestAt(double x, double y, double z) {
  Request r;
  r.target = {x, y, z};
  r.use_seed_cache = false;
  return r;
}

sim::ModelSolverConfig slowSolver() {
  sim::ModelSolverConfig cfg;
  cfg.iteration_ms = 1.0;  // >= 1ms per solve, deterministic floor
  cfg.tail_probability = 0.0;
  return cfg;
}

TEST(SimService, SpawnsNoThreadsAndSolvesEverything) {
  ServiceConfig cfg;
  cfg.workers = 4;
  cfg.queue_capacity = 64;
  Harness h(cfg);

  EXPECT_EQ(h.service.workerCount(), 4u);  // logical, not OS threads
  for (int i = 0; i < 32; ++i)
    h.submit(requestAt(0.1 * i, 0.2, -0.1));
  h.exec.drain();

  ASSERT_EQ(h.responses.size(), 32u);
  for (const Response& r : h.responses)
    EXPECT_EQ(r.status, ResponseStatus::kSolved);
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.submitted, 32u);
  EXPECT_EQ(stats.solved, 32u);
  EXPECT_EQ(stats.accounted(), stats.submitted);
  // The solves charged virtual time; nothing slept for real.
  EXPECT_GT(h.clock.elapsed(), platform::Clock::duration::zero());
}

TEST(SimService, QueuedDeadlineExpiresOnVirtualTimeAlone) {
  // One worker, a >=1ms solve in front, and a 0.5ms deadline behind it:
  // the second request must expire in-queue purely because the first
  // solve advanced the virtual clock past it.  No real waiting anywhere.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 8;
  Harness h(cfg, slowSolver());

  h.submit(requestAt(0.3, 0.2, 0.1));
  Request hurried = requestAt(-0.2, 0.4, 0.0);
  hurried.deadline_ms = 0.5;
  h.submit(std::move(hurried));
  h.exec.drain();

  ASSERT_EQ(h.responses.size(), 2u);
  EXPECT_EQ(h.responses[0].status, ResponseStatus::kSolved);
  EXPECT_EQ(h.responses[1].status, ResponseStatus::kDeadlineExceeded);
  EXPECT_EQ(h.service.stats().deadline_expired, 1u);
}

TEST(SimService, DiscardStopRejectsQueuedWorkInline) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.queue_capacity = 16;
  Harness h(cfg, slowSolver());

  for (int i = 0; i < 6; ++i)
    h.submit(requestAt(0.1, 0.1 * i, 0.2));
  // Don't drain: everything is still queued (or posted).  A discard
  // stop must resolve every pending request as Rejected{Shutdown}
  // without running a single solve past the close.
  h.service.stop(IkService::Drain::kDiscardPending);
  h.exec.drain();

  ASSERT_EQ(h.responses.size(), 6u);
  std::size_t rejected = 0;
  for (const Response& r : h.responses)
    if (r.status == ResponseStatus::kRejected &&
        r.reject_reason == RejectReason::kShutdown)
      ++rejected;
  EXPECT_GE(rejected, 5u);  // at most one had already been dispatched
  const ServiceStats stats = h.service.stats();
  EXPECT_EQ(stats.accounted(), stats.submitted);
  EXPECT_EQ(h.service.stats().submitted, 6u);

  // Post-stop submissions fail fast with the same reason.
  h.submit(requestAt(0.5, 0.5, 0.5));
  EXPECT_EQ(h.responses.back().status, ResponseStatus::kRejected);
  EXPECT_EQ(h.responses.back().reject_reason, RejectReason::kShutdown);
}

TEST(SimService, IdenticalRunsProduceBitIdenticalResponses) {
  const auto run = [] {
    ServiceConfig cfg;
    cfg.workers = 2;
    cfg.queue_capacity = 32;
    Harness h(cfg, {}, 77);
    for (int i = 0; i < 24; ++i) {
      Request r = requestAt(0.07 * i, -0.02 * i, 0.15);
      if (i % 5 == 0) r.deadline_ms = 2.0;
      h.submit(std::move(r));
    }
    h.exec.drain();
    return std::make_pair(std::move(h.responses),
                          h.clock.elapsed());
  };

  const auto [ra, ta] = run();
  const auto [rb, tb] = run();
  EXPECT_EQ(ta, tb);  // the virtual timeline itself replays exactly
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].status, rb[i].status) << i;
    EXPECT_EQ(ra[i].result.iterations, rb[i].result.iterations) << i;
    EXPECT_EQ(ra[i].queue_ms, rb[i].queue_ms) << i;
    EXPECT_EQ(ra[i].solve_ms, rb[i].solve_ms) << i;
  }
}

}  // namespace
}  // namespace dadu::service
