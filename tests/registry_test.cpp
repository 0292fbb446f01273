// dadu_registry tests: the multi-robot spec table and the SpecRouter's
// per-spec lanes.  The load-bearing claims:
//   - registration is strict (duplicate ids/names throw, unknown ids
//     resolve to nothing) so routing never silently shadows a robot;
//   - routing through the router is bit-identical to running the same
//     spec in its own single-spec IkService;
//   - per-spec seed caches are physically isolated (a hit in spec A
//     never seeds spec B);
//   - an interleaved burst never hands a request to another spec's
//     solver (every response's theta has its own spec's DOF);
//   - the aggregate/metrics views conserve what the lanes counted;
//   - the lanes share one work-conserving pool: one flooded spec runs
//     on every worker, a request to another spec still completes
//     within totalWorkers() + 1 completions, and a drain stop solves
//     what every lane had queued.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dadu/kinematics/presets.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/registry/spec_router.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/solvers/factory.hpp"
#include "dadu/workload/targets.hpp"

namespace dadu::registry {
namespace {

using service::Request;
using service::Response;
using service::ResponseStatus;

Request requestFor(const kin::Chain& chain, std::uint32_t index,
                   bool use_cache = false) {
  const auto task = workload::generateTask(chain, static_cast<int>(index));
  Request request;
  request.target = task.target;
  request.seed = task.seed;
  request.use_seed_cache = use_cache;
  return request;
}

bool bitIdentical(const linalg::VecX& a, const linalg::VecX& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  return true;
}

/// Registry with `dofs.size()` serpentine specs, ids 0,1,...
RobotSpecRegistry makeRegistry(const std::vector<std::size_t>& dofs) {
  RobotSpecRegistry reg;
  for (std::size_t i = 0; i < dofs.size(); ++i) {
    RobotSpec spec;
    spec.id = static_cast<std::uint32_t>(i);
    spec.name = "serp" + std::to_string(dofs[i]);
    spec.chain_spec = "serpentine:" + std::to_string(dofs[i]);
    spec.chain = kin::makeSerpentine(dofs[i]);
    reg.add(std::move(spec));
  }
  return reg;
}

/// submit() through the router, synchronously.
Response call(SpecRouter& router, std::uint32_t spec_id, Request request) {
  std::promise<Response> promise;
  auto future = promise.get_future();
  EXPECT_TRUE(router.submit(spec_id, std::move(request),
                            [&](Response r) { promise.set_value(std::move(r)); }));
  return future.get();
}

/// Holds solves inside solve() and lets them out one at a time, oldest
/// entry first, so a test fixes the order in which pool workers finish.
/// Every wait gives up after a timeout so a missing worker fails the
/// test instead of hanging it.
class TurnGate {
 public:
  void enter() {
    std::unique_lock<std::mutex> lock(mutex_);
    const long turn = entered_++;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_ > turn; });
  }
  void releaseOne() {
    std::lock_guard<std::mutex> lock(mutex_);
    ++released_;
    cv_.notify_all();
  }
  void openAll() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = std::numeric_limits<long>::max();
    cv_.notify_all();
  }
  bool awaitEntered(long n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entered_ >= n; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  long entered_ = 0;
  long released_ = 0;
};

/// Opens the gate when a test leaves, failed assertions included, so
/// the router's drain stop never waits on a solve held at the gate.
/// Declare it after the router.
struct OpenGateOnExit {
  std::shared_ptr<TurnGate> gate;
  ~OpenGateOnExit() { gate->openAll(); }
};

/// Waits at the gate, then "converges" at the seed.
class TurnGateSolver : public ik::IkSolver {
 public:
  TurnGateSolver(kin::Chain chain, std::shared_ptr<TurnGate> gate)
      : chain_(std::move(chain)), gate_(std::move(gate)) {}
  ik::SolveResult solve(const linalg::Vec3&, const linalg::VecX& seed) override {
    gate_->enter();
    ik::SolveResult r;
    r.status = ik::Status::kConverged;
    r.iterations = 1;
    r.theta = seed;
    return r;
  }
  std::string name() const override { return "turn-gate"; }
  const kin::Chain& chain() const override { return chain_; }
  const ik::SolveOptions& options() const override { return options_; }

 private:
  kin::Chain chain_;
  std::shared_ptr<TurnGate> gate_;
  ik::SolveOptions options_;
};

/// Two 4-DOF specs ("a" = id 0, "b" = id 1) whose solvers all wait at
/// `gate`.
RobotSpecRegistry makeGatedRegistry(const std::shared_ptr<TurnGate>& gate) {
  RobotSpecRegistry reg;
  for (std::uint32_t id = 0; id < 2; ++id) {
    RobotSpec spec;
    spec.id = id;
    spec.name = id == 0 ? "a" : "b";
    spec.chain = kin::makeSerpentine(4);
    const kin::Chain chain = spec.chain;
    spec.factory = [chain, gate] {
      return std::make_unique<TurnGateSolver>(chain, gate);
    };
    reg.add(std::move(spec));
  }
  return reg;
}

/// Completion log shared by the pool tests: which spec finished, on
/// which thread, in completion order.
class CompletionLog {
 public:
  struct Entry {
    std::uint32_t spec;
    std::thread::id thread;
    ResponseStatus status;
  };
  service::IkService::Completion track(std::uint32_t spec) {
    return [this, spec](Response r) {
      std::lock_guard<std::mutex> lock(mutex_);
      entries_.push_back({spec, std::this_thread::get_id(), r.status});
      cv_.notify_all();
    };
  }
  bool awaitCount(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::seconds(10),
                        [&] { return entries_.size() >= n; });
  }
  std::vector<Entry> entries() {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_;
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Entry> entries_;
};

TEST(RobotSpecRegistry, ResolveChainSpecGrammar) {
  EXPECT_EQ(resolveChainSpec("serpentine:9").dof(), 9u);
  EXPECT_EQ(resolveChainSpec("planar:4").dof(), 4u);
  EXPECT_EQ(resolveChainSpec("puma").dof(), 6u);
  EXPECT_THROW(resolveChainSpec("serpentine:9:oops"), std::invalid_argument);
}

TEST(RobotSpecRegistry, AddBindingParsesNamesAndAssignsDenseIds) {
  RobotSpecRegistry reg;
  reg.addBinding("left=serpentine:6");
  reg.addBinding("planar:4");
  // References returned by addBinding are invalidated by the next
  // registration (vector growth) — read through specs() instead.
  const RobotSpec& left = reg.specs()[0];
  const RobotSpec& bare = reg.specs()[1];
  EXPECT_EQ(left.id, 0u);
  EXPECT_EQ(left.name, "left");
  EXPECT_EQ(left.chain.dof(), 6u);
  EXPECT_EQ(bare.id, 1u);
  EXPECT_EQ(bare.name, "planar_4");  // ':' becomes '_' for metric names
  EXPECT_EQ(bare.chain.dof(), 4u);
  EXPECT_EQ(reg.findByName("left"), &reg.specs()[0]);
  EXPECT_EQ(reg.find(1), &reg.specs()[1]);
  EXPECT_EQ(reg.find(2), nullptr);
}

TEST(RobotSpecRegistry, AddBindingForwardsSolverPolicy) {
  RobotSpecRegistry reg;
  ik::SolveOptions options;
  options.max_iterations = 123;
  const RobotSpec& spec = reg.addBinding("arm=serpentine:5", "dls", options);
  EXPECT_EQ(spec.solver, "dls");
  EXPECT_EQ(spec.options.max_iterations, 123);
}

TEST(RobotSpecRegistry, DuplicateRegistrationThrows) {
  RobotSpecRegistry reg;
  reg.addBinding("arm=serpentine:6");
  EXPECT_THROW(reg.addBinding("arm=planar:4"), std::invalid_argument);  // name
  RobotSpec dup;
  dup.id = 0;  // id 0 is taken
  dup.name = "other";
  dup.chain = kin::makeSerpentine(4);
  EXPECT_THROW(reg.add(std::move(dup)), std::invalid_argument);
  EXPECT_EQ(reg.size(), 1u);  // failed registrations left no residue
}

TEST(RobotSpecRegistry, LoadFileReadsBindingsSkipsCommentsAndBlanks) {
  const std::string path = ::testing::TempDir() + "robots.spec";
  {
    std::ofstream file(path);
    file << "# fleet under test\n"
         << "left=serpentine:6\n"
         << "\n"
         << "right=planar:4   # trailing comment\n";
  }
  RobotSpecRegistry reg;
  EXPECT_EQ(reg.loadFile(path), 2u);
  ASSERT_NE(reg.findByName("right"), nullptr);
  EXPECT_EQ(reg.findByName("right")->chain.dof(), 4u);
  std::remove(path.c_str());
}

TEST(SpecRouter, EmptyRegistryThrows) {
  RobotSpecRegistry reg;
  EXPECT_THROW(SpecRouter router(reg), std::invalid_argument);
}

TEST(SpecRouter, UnknownSpecReturnsFalseWithoutInvokingCompletion) {
  const auto reg = makeRegistry({6});
  RouterConfig config;
  config.base.workers = 1;
  SpecRouter router(reg, config);
  bool invoked = false;
  EXPECT_FALSE(router.submit(7, requestFor(reg.specs()[0].chain, 0),
                             [&](Response) { invoked = true; }));
  EXPECT_FALSE(invoked);
  EXPECT_EQ(router.serviceFor(7), nullptr);
  EXPECT_NE(router.serviceFor(0), nullptr);
}

TEST(SpecRouter, RoutingIsBitIdenticalToStandaloneSingleSpecService) {
  // The acceptance criterion: a request routed through the multi-spec
  // router must solve exactly as it would in a dedicated single-spec
  // deployment — same solver, same queue, same (disabled) cache.
  const auto reg = makeRegistry({5, 8});
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = false;
  SpecRouter router(reg, config);

  for (const RobotSpec& spec : reg.specs()) {
    service::ServiceConfig standalone_config = config.base;
    service::IkService standalone(RobotSpecRegistry::makeFactory(spec),
                                  standalone_config);
    for (std::uint32_t i = 0; i < 8; ++i) {
      const Response routed = call(router, spec.id, requestFor(spec.chain, i));
      const Response direct =
          standalone.submit(requestFor(spec.chain, i)).get();
      ASSERT_EQ(routed.status, ResponseStatus::kSolved);
      ASSERT_EQ(direct.status, ResponseStatus::kSolved);
      EXPECT_EQ(routed.result.iterations, direct.result.iterations);
      EXPECT_TRUE(bitIdentical(routed.result.theta, direct.result.theta))
          << spec.name << " task " << i;
    }
    standalone.stop();
  }
}

TEST(SpecRouter, SeedCachesAreIsolatedPerSpec) {
  // Same chain geometry behind two spec ids: identical targets, so a
  // shared cache WOULD cross-hit.  The lanes must not.
  RobotSpecRegistry reg;
  for (std::uint32_t id = 0; id < 2; ++id) {
    RobotSpec spec;
    spec.id = id;
    spec.name = "twin" + std::to_string(id);
    spec.chain = kin::makeSerpentine(6);
    reg.add(std::move(spec));
  }
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = true;
  SpecRouter router(reg, config);

  // Warm spec 0 with repeats of the same task; spec 1 never sees it.
  for (int round = 0; round < 4; ++round)
    call(router, 0, requestFor(reg.specs()[0].chain, 0, /*use_cache=*/true));
  auto lanes = router.perSpecStats();
  ASSERT_EQ(lanes.size(), 2u);
  EXPECT_GT(lanes[0].stats.cache_hits, 0u);
  EXPECT_EQ(lanes[1].stats.cache_hits, 0u);

  // The identical target against spec 1 must MISS: a warm entry in
  // spec 0's cache is invisible across the lane boundary.
  call(router, 1, requestFor(reg.specs()[1].chain, 0, /*use_cache=*/true));
  lanes = router.perSpecStats();
  EXPECT_EQ(lanes[1].stats.cache_hits, 0u);
  EXPECT_GT(lanes[1].stats.cache_misses, 0u);
}

TEST(SpecRouter, BatchedDispatchNeverMixesSpecs) {
  // Interleave a burst across specs.  Every response's theta must
  // carry its own spec's DOF — a request handed to the wrong lane's
  // solver would betray itself by the dimension.
  const std::vector<std::size_t> dofs = {4, 7, 10};
  const auto reg = makeRegistry(dofs);
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = false;
  SpecRouter router(reg, config);

  constexpr int kPerSpec = 24;
  struct Pending {
    std::uint32_t spec;
    std::future<Response> future;
  };
  std::vector<Pending> pending;
  for (int i = 0; i < kPerSpec; ++i) {
    for (const RobotSpec& spec : reg.specs()) {
      auto promise = std::make_shared<std::promise<Response>>();
      pending.push_back({spec.id, promise->get_future()});
      ASSERT_TRUE(router.submit(
          spec.id, requestFor(spec.chain, static_cast<std::uint32_t>(i)),
          [promise](Response r) { promise->set_value(std::move(r)); }));
    }
  }
  for (auto& p : pending) {
    const Response r = p.future.get();
    ASSERT_EQ(r.status, ResponseStatus::kSolved);
    EXPECT_EQ(r.result.theta.size(), dofs[p.spec]);
  }
  // Every lane served only its own load.
  for (const auto& lane : router.perSpecStats())
    EXPECT_EQ(lane.stats.submitted, static_cast<std::uint64_t>(kPerSpec));
}

TEST(SpecRouter, AggregateConservesLaneCountersAndMetricsAreLabelled) {
  const auto reg = makeRegistry({5, 6});
  RouterConfig config;
  config.base.workers = 1;
  SpecRouter router(reg, config);
  for (std::uint32_t i = 0; i < 5; ++i) call(router, 0, requestFor(reg.specs()[0].chain, i));
  for (std::uint32_t i = 0; i < 3; ++i) call(router, 1, requestFor(reg.specs()[1].chain, i));

  const auto aggregate = router.aggregatedStats();
  EXPECT_EQ(aggregate.submitted, 8u);
  EXPECT_EQ(aggregate.accounted(), aggregate.submitted);
  std::uint64_t lane_sum = 0;
  for (const auto& lane : router.perSpecStats()) lane_sum += lane.stats.submitted;
  EXPECT_EQ(lane_sum, aggregate.submitted);

  const obs::MetricsSnapshot snap = router.metrics();
  const auto counterValue = [&](const std::string& name) -> double {
    for (const auto& c : snap.counters)
      if (c.name == name) return static_cast<double>(c.value);
    ADD_FAILURE() << "missing counter " << name;
    return -1.0;
  };
  EXPECT_EQ(counterValue("dadu_spec_serp5_requests"), 5.0);
  EXPECT_EQ(counterValue("dadu_spec_serp6_requests"), 3.0);
  bool saw_specs_gauge = false;
  for (const auto& g : snap.gauges)
    if (g.name == "dadu_registry_specs") {
      saw_specs_gauge = true;
      EXPECT_EQ(g.value, 2.0);
    }
  EXPECT_TRUE(saw_specs_gauge);
}

TEST(SpecRouter, IdleWorkersServeAnotherSpecsBacklog) {
  // One worker per spec, only spec "a" flooded.  Behind one shared pool
  // both workers take a's backlog; per-lane worker threads would leave
  // b's worker idle and serve a on one thread.
  const auto gate = std::make_shared<TurnGate>();
  const auto reg = makeGatedRegistry(gate);
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = false;
  CompletionLog log;  // outlives the router's drain-stop completions
  SpecRouter router(reg, config);
  const OpenGateOnExit open_on_exit{gate};
  ASSERT_EQ(router.totalWorkers(), 2u);

  constexpr std::size_t kFlood = 8;
  for (std::uint32_t i = 0; i < kFlood; ++i)
    ASSERT_TRUE(router.submit(0, requestFor(reg.specs()[0].chain, i),
                              log.track(0)));
  EXPECT_TRUE(gate->awaitEntered(2)) << "spec a never ran on two workers";
  gate->openAll();
  ASSERT_TRUE(log.awaitCount(kFlood));
  router.stop();

  std::set<std::thread::id> threads;
  for (const auto& e : log.entries()) {
    EXPECT_EQ(e.spec, 0u);
    EXPECT_EQ(e.status, ResponseStatus::kSolved);
    threads.insert(e.thread);
  }
  EXPECT_EQ(threads.size(), 2u);
  // The gauge still reports each spec's contribution, not the pool.
  for (const auto& lane : router.perSpecStats()) EXPECT_EQ(lane.workers, 1u);
}

TEST(SpecRouter, RequestBehindAnotherSpecsFloodWaitsBoundedCompletions) {
  // Every worker busy on spec a with more a queued; then one b
  // request.  The round-robin scan hands b to the next worker that
  // finishes, so b completes within totalWorkers() + 1 completions of
  // its submit.  The gate lets solves finish one at a time, oldest
  // first, and waits for the freed worker to take its next job, so the
  // order is fixed.
  const auto gate = std::make_shared<TurnGate>();
  const auto reg = makeGatedRegistry(gate);
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = false;
  CompletionLog log;  // outlives the router's drain-stop completions
  SpecRouter router(reg, config);
  const OpenGateOnExit open_on_exit{gate};
  const long workers = static_cast<long>(router.totalWorkers());

  constexpr std::size_t kFlood = 8;
  for (std::uint32_t i = 0; i < kFlood; ++i)
    ASSERT_TRUE(router.submit(0, requestFor(reg.specs()[0].chain, i),
                              log.track(0)));
  ASSERT_TRUE(gate->awaitEntered(workers));
  ASSERT_TRUE(router.submit(1, requestFor(reg.specs()[1].chain, 0),
                            log.track(1)));

  const long total = static_cast<long>(kFlood) + 1;
  long b_position = 0;  // 1-based completion index after b's submit
  for (long done = 1; done <= total && b_position == 0; ++done) {
    gate->releaseOne();
    ASSERT_TRUE(log.awaitCount(static_cast<std::size_t>(done)));
    if (log.entries()[static_cast<std::size_t>(done - 1)].spec == 1)
      b_position = done;
    // The freed worker takes its next job (while one is left) before
    // the next release, so turn order is dispatch order.
    if (workers + done <= total) {
      ASSERT_TRUE(gate->awaitEntered(workers + done));
    }
  }
  gate->openAll();
  router.stop();
  ASSERT_NE(b_position, 0) << "spec b never completed";
  EXPECT_LE(b_position, workers + 1);
}

TEST(SpecRouter, DrainStopSolvesEveryLanesQueueOnTheSharedPool) {
  // Both lanes hold queued work behind a saturated pool when the drain
  // stop begins.  The stop must solve all of it, and every lane's books
  // must balance.
  const auto gate = std::make_shared<TurnGate>();
  const auto reg = makeGatedRegistry(gate);
  RouterConfig config;
  config.base.workers = 1;
  config.base.enable_seed_cache = false;
  CompletionLog log;  // outlives the router's drain-stop completions
  SpecRouter router(reg, config);
  const OpenGateOnExit open_on_exit{gate};

  constexpr std::uint32_t kPerSpec = 5;
  for (std::uint32_t i = 0; i < kPerSpec; ++i)
    for (std::uint32_t spec = 0; spec < 2; ++spec)
      ASSERT_TRUE(router.submit(spec, requestFor(reg.specs()[spec].chain, i),
                                log.track(spec)));
  ASSERT_TRUE(gate->awaitEntered(static_cast<long>(router.totalWorkers())));
  for (const auto& lane : router.perSpecStats())
    EXPECT_GT(lane.queue_depth, 0u) << lane.spec->name;

  std::thread stopper(
      [&] { router.stop(service::IkService::Drain::kDrainPending); });
  // Open the gate only once the stop has closed the first lane.
  while (!router.serviceFor(0)->stopped()) std::this_thread::yield();
  gate->openAll();
  stopper.join();

  const auto entries = log.entries();
  ASSERT_EQ(entries.size(), 2u * kPerSpec);
  for (const auto& e : entries) EXPECT_EQ(e.status, ResponseStatus::kSolved);
  for (const auto& lane : router.perSpecStats()) {
    EXPECT_EQ(lane.stats.submitted, kPerSpec) << lane.spec->name;
    EXPECT_EQ(lane.stats.solved, kPerSpec) << lane.spec->name;
    EXPECT_EQ(lane.stats.accounted(), lane.stats.submitted) << lane.spec->name;
    EXPECT_EQ(lane.queue_depth, 0u) << lane.spec->name;
  }
}

}  // namespace
}  // namespace dadu::registry
