// SpecRouter: per-spec serving lanes behind one submit() seam.
//
// One router owns one IkService lane per registered robot spec, and
// one WorkerPool whose threads serve every lane.  What is per spec and
// what is shared is the whole design:
//
//   per-spec queues        each lane has its own bounded MPMC queue and
//                          admission (breaker, deadlines), so one
//                          robot's backlog cannot starve another's
//                          admission;
//   one shared pool        the pool's threads (sized as the sum of the
//                          lanes' worker counts, see RouterConfig) run
//                          whichever lane has work, so no thread idles
//                          while another robot queues.  Workers scan
//                          the lanes round-robin from the lane they
//                          last served, which bounds the wait behind a
//                          flooded lane: a request at the head of an
//                          idle lane completes within totalWorkers() + 1
//                          completions of its submit when solves cost
//                          alike;
//   per-spec seed caches   cache keys are workspace positions, which
//                          are meaningless across chains — a hit in
//                          spec A can never seed spec B because the
//                          caches are physically separate;
//   spec-pure solvers      every pool worker holds one solver per lane,
//                          built by that lane's factory for its own
//                          chain, so a request is only ever solved
//                          against the spec it named, and routing is
//                          bit-identical to running each spec in its
//                          own single-spec server: same queue, same
//                          cache, same solver.
//
// The front-ends (IkServer, SimServer) route a wire request by its
// spec_id through submit(); an unknown id returns false and the caller
// answers kUnknownSpec.  Lanes run under whatever clock/executor seam
// RouterConfig::base carries, so the whole router works inside the
// deterministic simulation unchanged; with an executor there is no
// pool, and each lane keeps its own cooperative workers.
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "dadu/obs/export.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/service/ik_service.hpp"

namespace dadu::registry {

/// Registry-level resource policy: what each spec's lane contributes.
struct RouterConfig {
  /// Template for every lane's ServiceConfig (queue capacity, cache,
  /// breaker, stat shards, clock/executor seams).  The `workers` field
  /// is the per-spec default; see workers_per_spec.
  service::ServiceConfig base;
  /// Each spec's contribution to the shared pool: RobotSpec::workers
  /// wins when set, then this, then base.workers; all zero = hardware
  /// concurrency divided evenly across specs (min 1 per spec).
  std::size_t workers_per_spec = 0;
};

/// One spec's stats, labelled by its spec (for per-spec dashboards).
struct SpecLaneStats {
  const RobotSpec* spec = nullptr;
  service::ServiceStats stats;
  std::size_t queue_depth = 0;
  std::size_t workers = 0;  ///< the spec's contribution to the pool
};

class SpecRouter {
 public:
  /// Builds one IkService lane per spec in `registry` and starts the
  /// shared pool behind them.  The registry
  /// must be non-empty, outlive the router, and not be mutated while
  /// the router exists.  Throws std::invalid_argument on an empty
  /// registry.
  explicit SpecRouter(const RobotSpecRegistry& registry,
                      RouterConfig config = {});
  ~SpecRouter();  ///< stop(Drain::kDrainPending)

  SpecRouter(const SpecRouter&) = delete;
  SpecRouter& operator=(const SpecRouter&) = delete;

  /// The lane serving `spec_id` (nullptr = unknown spec).
  service::IkService* serviceFor(std::uint32_t spec_id);
  const RobotSpec* specFor(std::uint32_t spec_id) const;

  /// Route one request to its spec's lane.  Returns false (without
  /// invoking `done`) when the spec is unknown — the caller owns the
  /// error answer.  Admission, deadlines and dispatch are the lane
  /// service's, identical to a single-spec deployment.
  bool submit(std::uint32_t spec_id, service::Request request,
              service::IkService::Completion done);

  /// Stop every lane (same Drain semantics as IkService::stop), then
  /// join the pool.  Idempotent.
  void stop(service::IkService::Drain mode =
                service::IkService::Drain::kDrainPending);

  std::size_t specCount() const { return lanes_.size(); }
  /// Worker threads behind the router: the shared pool's size (in
  /// executor mode, the lanes' cooperative workers summed).
  std::size_t totalWorkers() const;
  const RobotSpecRegistry& registry() const { return registry_; }

  /// Fleet view: every counter summed across lanes, histograms merged
  /// bucket-wise (all lanes share base's ladder, so the merge is
  /// exact).  `submitted == accounted()` holds for the aggregate iff it
  /// holds per lane.
  service::ServiceStats aggregatedStats() const;
  std::vector<SpecLaneStats> perSpecStats() const;

  /// Aggregate dadu_service_* snapshot plus per-spec series named
  /// `dadu_spec_<name>_*` (requests, solved, cache hit rate, queue
  /// depth, pool contribution) — the exporter model has no labels, so
  /// the spec name rides in the metric name.
  obs::MetricsSnapshot metrics() const;

 private:
  struct Lane {
    const RobotSpec* spec = nullptr;
    std::unique_ptr<service::IkService> service;
  };

  const RobotSpecRegistry& registry_;
  RouterConfig config_;
  /// Threaded mode only.  Declared before the lanes so it outlives
  /// them; stop() joins its threads before any lane is destroyed.
  std::unique_ptr<service::WorkerPool> pool_;
  std::vector<Lane> lanes_;
  std::unordered_map<std::uint32_t, std::size_t> lane_by_id_;
};

}  // namespace dadu::registry
