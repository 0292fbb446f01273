#include "dadu/service/service_stats.hpp"

namespace dadu::service {

obs::MetricsSnapshot toMetricsSnapshot(const ServiceStats& stats) {
  obs::MetricsSnapshot snap;
  if (!stats.spec_backend.empty())
    snap.infos.push_back({"dadu_spec_backend", stats.spec_backend});
  const auto counter = [&](const char* name, std::uint64_t value) {
    snap.counters.push_back({std::string("dadu_service_") + name, value});
  };
  counter("submitted", stats.submitted);
  counter("rejected_queue_full", stats.rejected_queue_full);
  counter("rejected_shutdown", stats.rejected_shutdown);
  counter("rejected_overloaded", stats.rejected_overloaded);
  counter("shed_low_priority", stats.shed_low_priority);
  counter("deadline_expired", stats.deadline_expired);
  counter("solved", stats.solved);
  counter("converged", stats.converged);
  counter("timed_out", stats.timed_out);
  counter("internal_errors", stats.internal_errors);
  counter("breaker_trips", stats.breaker.trips);
  counter("breaker_probes", stats.breaker.probes_issued);
  counter("iterations", static_cast<std::uint64_t>(stats.total_iterations));
  counter("fk_evaluations",
          static_cast<std::uint64_t>(stats.total_fk_evaluations));
  counter("speculation_load",
          static_cast<std::uint64_t>(stats.total_speculation_load));
  counter("cache_hits", stats.cache_hits);
  counter("cache_misses", stats.cache_misses);
  counter("cache_inserts", stats.cache_inserts);
  counter("cache_evictions", stats.cache_evictions);

  snap.gauges.push_back(
      {"dadu_service_convergence_rate", stats.convergenceRate(), "ratio"});
  snap.gauges.push_back(
      {"dadu_service_cache_hit_rate", stats.cacheHitRate(), "ratio"});
  snap.gauges.push_back(
      {"dadu_service_mean_iterations", stats.meanIterations(), "iters"});
  snap.gauges.push_back({"dadu_service_breaker_state",
                         static_cast<double>(stats.breaker.state), "state"});
  // Requests per dispatch: every worker step takes one request, so
  // this reads 1 once anything has been dispatched.  Still exported
  // because the ikbench wire workload reads it from the stats dump.
  const bool dispatched =
      stats.solved + stats.deadline_expired + stats.internal_errors > 0;
  snap.gauges.push_back({"dadu_service_batch_mean_occupancy",
                         dispatched ? 1.0 : 0.0, "requests"});

  snap.histograms.push_back(
      {"dadu_service_queue_ms", stats.queue_hist, "ms"});
  snap.histograms.push_back(
      {"dadu_service_solve_ms", stats.solve_hist, "ms"});
  snap.histograms.push_back({"dadu_service_e2e_ms", stats.e2e_hist, "ms"});
  return snap;
}

}  // namespace dadu::service
