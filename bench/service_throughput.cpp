// Serving-layer throughput benchmark: an open-loop arrival workload
// against a live IkService, with the warm-start seed cache on vs off.
//
// Measurements on the same clustered-target workload (the traffic
// shape real IK services see — pick points, shelves, tool poses — and
// the one a seed cache exists for):
//
//   1. baseline: dadu::solveBatchParallel on the identical tasks (the
//      pre-service dispatch path; the service must sustain >= this),
//   2. burst runs, cache off/on: all requests submitted at once,
//      measuring sustained drain throughput,
//   3. offered-vs-achieved runs: arrivals paced at the PR 4 wire-level
//      offered load (BENCH_net.json net_requests_per_sec, ~3.2k req/s)
//      against the PR 4 workload shape (12-DOF serpentine).  Queueing
//      collapse is visible as achieved << offered and a runaway queue
//      p50; a healthy service tracks the offered rate with a
//      single-digit-ms queue wait.
//
// Usage: service_throughput [--quick] [--requests N] [--workers W]
//                           [--clusters C] [--rate R] [--json PATH]
//   --rate R           offered load (req/s) for the paced runs
//   --json P           write the results to P as BENCH_service.json records
#include <algorithm>
#include <chrono>
#include <cstring>
#include <future>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dadu/dadu.hpp"

namespace {

struct RunConfig {
  std::size_t workers = 0;
  bool cache_on = false;
  double rate = 0.0;  ///< offered arrivals/s; 0 = all at once
};

struct RunResult {
  double solves_per_sec = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_iterations = 0.0;
  double hit_rate = 0.0;
  dadu::service::ServiceStats stats;  ///< full snapshot (histograms incl.)
};

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

RunResult runService(const dadu::kin::Chain& chain,
                     const std::vector<dadu::workload::IkTask>& tasks,
                     const RunConfig& run_config) {
  namespace service = dadu::service;
  service::ServiceConfig config;
  config.workers = run_config.workers;
  config.queue_capacity = tasks.size();
  config.enable_seed_cache = run_config.cache_on;

  dadu::ik::SolveOptions options;  // paper defaults
  service::IkService svc(
      [&] { return dadu::ik::makeSolver("quick-ik", chain, options); }, config);

  dadu::platform::WallTimer timer;
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<service::Response>> futures;
  futures.reserve(tasks.size());
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    if (run_config.rate > 0.0) {
      // Open-loop pacing: arrival i is due at i/rate seconds; arrivals
      // never wait for completions (the regime where queueing theory
      // applies and admission control matters).
      const auto due =
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(static_cast<double>(i) /
                                            run_config.rate));
      std::this_thread::sleep_until(due);
    }
    futures.push_back(
        svc.submit({.target = tasks[i].target, .seed = tasks[i].seed}));
  }

  std::vector<double> latencies;
  latencies.reserve(futures.size());
  long long iterations = 0;
  for (auto& f : futures) {
    const dadu::service::Response r = f.get();
    latencies.push_back(r.queue_ms + r.solve_ms);
    iterations += r.result.iterations;
  }
  const double wall_ms = timer.elapsedMs();
  svc.stop();

  RunResult out;
  out.solves_per_sec =
      wall_ms > 0.0 ? static_cast<double>(tasks.size()) / (wall_ms * 1e-3)
                    : 0.0;
  std::sort(latencies.begin(), latencies.end());
  out.p50_ms = percentile(latencies, 50);
  out.p99_ms = percentile(latencies, 99);
  out.mean_iterations = tasks.empty()
                            ? 0.0
                            : static_cast<double>(iterations) /
                                  static_cast<double>(tasks.size());
  out.stats = svc.stats();
  out.hit_rate = out.stats.cacheHitRate();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int requests = 2000;
  int clusters = 32;
  std::size_t workers = 0;
  // Default offered load: the committed PR 4 wire-level throughput
  // (BENCH_net.json net_requests_per_sec) — the arrival rate the
  // service must absorb with a single-digit queue p50.
  double rate = 3238.0;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--clusters") == 0 && i + 1 < argc) {
      clusters = std::stoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<std::size_t>(std::stoul(argv[++i]));
    } else if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      rate = std::stod(argv[++i]);
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::cerr << "usage: service_throughput [--quick] [--requests N]\n"
                   "       [--clusters C] [--workers W] [--rate R]\n"
                   "       [--json PATH]\n";
      return 1;
    }
  }
  if (quick) {
    requests = std::min(requests, 100);
    clusters = std::min(clusters, 8);
  }

  const auto chain = dadu::kin::makeSerpentine(24);
  const auto tasks =
      dadu::workload::generateClusteredTasks(chain, requests, clusters);

  // 1. Pre-service dispatch baseline on the identical workload.
  const auto baseline = dadu::solveBatchParallel(
      [&] {
        return dadu::ik::makeSolver("quick-ik", chain,
                                    dadu::ik::SolveOptions{});
      },
      tasks, workers);

  // 2. Burst drain throughput: cache off/on.
  const auto burst = [&](bool cache_on) {
    RunConfig cfg;
    cfg.workers = workers;
    cfg.cache_on = cache_on;
    return runService(chain, tasks, cfg);
  };
  const RunResult off = burst(false);
  const RunResult on = burst(true);

  // 3. Offered-vs-achieved at the PR 4 offered load and workload shape
  //    (12-DOF serpentine, paced arrivals).
  const auto chain12 = dadu::kin::makeSerpentine(12);
  const auto tasks12 =
      dadu::workload::generateClusteredTasks(chain12, requests, clusters);
  const auto paced = [&](bool cache_on) {
    RunConfig cfg;
    cfg.workers = workers;
    cfg.cache_on = cache_on;
    cfg.rate = rate;
    return runService(chain12, tasks12, cfg);
  };
  const RunResult paced_off = paced(false);
  const RunResult paced_on = paced(true);

  std::cout << "Serving-layer throughput — " << requests << " requests, "
            << clusters << " clusters, 24-DOF serpentine\n\n";
  std::cout << "config                     solves/s   p50 ms   p99 ms   "
               "mean iters   hit rate\n";
  std::cout << "batch baseline             " << baseline.solves_per_second
            << "\n";
  const auto row = [](const char* name, const RunResult& r) {
    std::cout << name << "   " << r.solves_per_sec << "   " << r.p50_ms
              << "   " << r.p99_ms << "   " << r.mean_iterations << "   "
              << r.hit_rate << "\n";
  };
  row("service (cache off)     ", off);
  row("service (cache on)      ", on);
  std::cout << "\ncache speedup: " << (on.solves_per_sec / off.solves_per_sec)
            << "x throughput, " << (off.mean_iterations / on.mean_iterations)
            << "x fewer iterations\n";

  const auto pacedLine = [&](const char* name, const RunResult& r) {
    std::cout << "  " << name << ": offered " << rate << " req/s, achieved "
              << r.solves_per_sec << " req/s, queue p50/p99 "
              << r.stats.queue_hist.p50() << " / " << r.stats.queue_hist.p99()
              << " ms\n";
  };
  std::cout << "\noffered-vs-achieved (12-DOF, PR 4 offered load):\n";
  pacedLine("cache off", paced_off);
  pacedLine("cache on ", paced_on);

  if (!json_path.empty()) {
    std::vector<bench::MetricRecord> records = {
        {"service_batch_baseline_solves_per_sec", baseline.solves_per_second,
         "solves/s"},
        {"service_solves_per_sec_cache_off", off.solves_per_sec, "solves/s"},
        {"service_solves_per_sec_cache_on", on.solves_per_sec, "solves/s"},
        {"service_p50_ms_cache_off", off.p50_ms, "ms"},
        {"service_p99_ms_cache_off", off.p99_ms, "ms"},
        {"service_p50_ms_cache_on", on.p50_ms, "ms"},
        {"service_p99_ms_cache_on", on.p99_ms, "ms"},
        {"service_mean_iterations_cache_off", off.mean_iterations, "iters"},
        {"service_mean_iterations_cache_on", on.mean_iterations, "iters"},
        {"service_cache_hit_rate", on.hit_rate, "ratio"},
        // Offered-vs-achieved at the PR 4 load: the queue percentiles
        // here are the meaningful queueing numbers (the burst runs
        // above measure drain throughput, where queue wait is a
        // property of the harness's all-at-once arrival, not of the
        // service).
        {"service_offered_load_rps", rate, "req/s"},
        {"service_achieved_rps_cache_off", paced_off.solves_per_sec, "req/s"},
        {"service_achieved_rps_cache_on", paced_on.solves_per_sec, "req/s"},
    };
    const auto histRecords = [&records](const char* prefix,
                                        const dadu::obs::HistogramSnapshot& h,
                                        const char* suffix) {
      const std::string base = std::string(prefix);
      records.push_back({base + "_p50_ms" + suffix, h.p50(), "ms"});
      records.push_back({base + "_p90_ms" + suffix, h.p90(), "ms"});
      records.push_back({base + "_p99_ms" + suffix, h.p99(), "ms"});
    };
    histRecords("service_queue", paced_off.stats.queue_hist, "_cache_off");
    histRecords("service_solve", off.stats.solve_hist, "_cache_off");
    histRecords("service_queue", paced_on.stats.queue_hist, "_cache_on");
    histRecords("service_solve", on.stats.solve_hist, "_cache_on");
    if (!bench::writeMetricsJson(
            json_path, bench::currentRunHeader(argc, argv), records)) {
      std::cerr << "error: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << records.size() << " records to " << json_path
              << "\n";
  }
  return 0;
}
