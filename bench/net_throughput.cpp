// Wire-level serving throughput: a multi-connection load generator
// against a live IkServer on loopback — the full ingress path the
// in-process service bench cannot see (framing, epoll dispatch,
// eventfd completion hand-off, socket writes).
//
// Shape: C client threads, one pipelined IkClient connection each,
// window W requests outstanding per connection.  Every client measures
// per-request wall latency (send -> matching reply); the driver
// aggregates p50/p90/p99, throughput, and the server's shed/reject
// counters — the acceptance numbers for the dadu_net front-end.
//
// A full run finishes in well under a second, so one run is mostly
// start-up and scheduler noise (~±10% run to run).  The measured leg
// therefore runs kRuns times, each against a fresh server and router
// (a cold seed cache, so every run offers the same work); the report
// and the JSON records are those of the median-throughput run, plus
// the min and max req/s across runs.
//
// Usage: net_throughput [--quick] [--connections C] [--requests N]
//                       [--window W] [--workers K] [--dof D]
//                       [--spec-mix S] [--json PATH]
//   --quick            small workload for CI smoke runs
//   --requests         total requests across all connections
//   --spec-mix S       host S robot specs (same DOF) behind one server;
//                      connection c drives spec c % S, so every spec
//                      sees equal offered load and the report breaks
//                      req/s out per spec (1 = classic single-spec)
//   --json P           write BENCH_net.json metric records to P
//   --json-append P    like --json but appends to an existing metrics
//                      file, so multiple legs share one BENCH_net.json
#include <algorithm>
#include <atomic>
#include <cstring>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_json.hpp"
#include "dadu/dadu.hpp"

namespace {

/// Measured runs per invocation; the median-throughput run is reported.
constexpr std::size_t kRuns = 3;

struct Options {
  std::size_t connections = 64;
  std::size_t requests = 8192;
  std::size_t window = 8;  ///< pipelined requests in flight per connection
  std::size_t workers = 0;
  std::size_t dof = 12;
  std::size_t spec_mix = 1;
  std::string json_path;
  bool json_append = false;  ///< splice records into an existing file
};

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

struct ClientOutcome {
  std::vector<double> latencies_ms;
  std::size_t solved = 0;
  std::size_t rejected = 0;  ///< service-level rejects (queue full, ...)
  std::size_t wire_errors = 0;
};

/// One connection's worth of load: pipeline up to `window` requests,
/// collect replies in arrival order, timestamp each by request id.
ClientOutcome runClient(const dadu::kin::Chain& chain, std::uint16_t port,
                        std::size_t requests, std::size_t window,
                        std::uint32_t task_offset, std::uint32_t spec_id) {
  namespace net = dadu::net;
  ClientOutcome outcome;
  outcome.latencies_ms.reserve(requests);

  net::IkClient client;
  client.connect("127.0.0.1", port);
  client.setSpecId(spec_id);

  std::unordered_map<std::uint64_t, dadu::platform::WallTimer> sent;
  std::size_t submitted = 0, received = 0;
  while (received < requests) {
    while (submitted < requests && sent.size() < window) {
      const auto task = dadu::workload::generateTask(
          chain, task_offset + static_cast<std::uint32_t>(submitted));
      dadu::service::Request request;
      request.target = task.target;
      request.seed = task.seed;
      const std::uint64_t id = client.sendRequest(request);
      sent.emplace(id, dadu::platform::WallTimer{});
      ++submitted;
    }
    const net::ClientReply reply = client.receiveAny();
    const auto it = sent.find(reply.id());
    if (it == sent.end()) continue;  // not ours (cannot happen; be safe)
    outcome.latencies_ms.push_back(it->second.elapsedMs());
    sent.erase(it);
    ++received;
    if (reply.type == net::MsgType::kError) {
      ++outcome.wire_errors;
    } else if (static_cast<dadu::service::ResponseStatus>(
                   reply.response.status) ==
               dadu::service::ResponseStatus::kSolved) {
      ++outcome.solved;
    } else {
      ++outcome.rejected;
    }
  }
  return outcome;
}

/// One measured run against a fresh server and router.
struct LegResult {
  double rps = 0.0;
  std::string report;  ///< the human-readable block for this run
  std::vector<bench::MetricRecord> records;       ///< aggregates
  std::vector<bench::MetricRecord> spec_records;  ///< per-spec req/s
  bool accounted = true;  ///< every reply counted exactly once
};

LegResult runLeg(const Options& opt, const dadu::kin::Chain& chain) {
  namespace net = dadu::net;
  namespace service = dadu::service;
  namespace registry = dadu::registry;

  service::ServiceConfig service_config;
  service_config.workers = opt.workers;
  service_config.queue_capacity = 4096;
  service_config.enable_seed_cache = true;

  // Every spec solves the same-DOF serpentine so per-spec offered load
  // and solve cost are equal — the multi-spec numbers are directly
  // comparable with the single-spec baseline.
  registry::RobotSpecRegistry reg;
  for (std::size_t s = 0; s < opt.spec_mix; ++s) {
    registry::RobotSpec spec;
    spec.id = static_cast<std::uint32_t>(s);
    spec.name = "spec" + std::to_string(s);
    spec.chain_spec = "serpentine:" + std::to_string(opt.dof);
    spec.chain = chain;
    reg.add(std::move(spec));
  }
  registry::RouterConfig router_config;
  router_config.base = service_config;
  registry::SpecRouter router(reg, router_config);

  net::ServerConfig server_config;
  server_config.max_connections = opt.connections + 8;
  net::IkServer server(router, server_config);
  server.start();
  const std::uint16_t port = server.port();

  const std::size_t per_conn =
      std::max<std::size_t>(1, opt.requests / opt.connections);
  std::vector<ClientOutcome> outcomes(opt.connections);
  dadu::platform::WallTimer wall;
  {
    std::vector<std::thread> threads;
    threads.reserve(opt.connections);
    for (std::size_t c = 0; c < opt.connections; ++c)
      threads.emplace_back([&, c] {
        outcomes[c] = runClient(chain, port, per_conn, opt.window,
                                static_cast<std::uint32_t>(c * per_conn),
                                static_cast<std::uint32_t>(c % opt.spec_mix));
      });
    for (auto& t : threads) t.join();
  }
  const double wall_ms = wall.elapsedMs();
  server.stop();
  router.stop();

  std::vector<double> latencies;
  std::size_t solved = 0, rejected = 0, wire_errors = 0;
  std::vector<std::size_t> spec_replies(opt.spec_mix, 0);
  for (std::size_t c = 0; c < outcomes.size(); ++c) {
    const auto& o = outcomes[c];
    latencies.insert(latencies.end(), o.latencies_ms.begin(),
                     o.latencies_ms.end());
    solved += o.solved;
    rejected += o.rejected;
    wire_errors += o.wire_errors;
    spec_replies[c % opt.spec_mix] += o.latencies_ms.size();
  }
  std::sort(latencies.begin(), latencies.end());
  const double total = static_cast<double>(latencies.size());
  LegResult leg;
  leg.rps = total / (wall_ms / 1000.0);
  const double p50 = percentile(latencies, 50.0);
  const double p90 = percentile(latencies, 90.0);
  const double p99 = percentile(latencies, 99.0);
  const net::NetStats net_stats = server.stats();
  const service::ServiceStats svc_stats = router.aggregatedStats();
  const double reject_rate = total > 0.0 ? rejected / total : 0.0;
  const double shed_rate =
      total > 0.0 ? static_cast<double>(net_stats.shed_draining) / total : 0.0;

  std::ostringstream out;
  out << "workers:        " << router.totalWorkers() << " (port " << port
      << ")\n"
      << "throughput:     " << leg.rps << " req/s (" << latencies.size()
      << " replies in " << wall_ms << " ms)\n"
      << "latency p50/p90/p99: " << p50 << " / " << p90 << " / " << p99
      << " ms\n"
      << "solved:         " << solved << ", rejected " << rejected
      << " (rate " << reject_rate << "), wire errors " << wire_errors << '\n'
      << "server:         " << net_stats.frames_received << " frames in, "
      << net_stats.responses_sent << " responses, "
      << net_stats.malformed_frames << " malformed, shed rate " << shed_rate
      << '\n'
      << "service:        " << svc_stats.solved << " solved, "
      << svc_stats.rejected_queue_full << " queue-full, cache hit rate "
      << svc_stats.cacheHitRate() << '\n'
      << "offered vs achieved: closed loop, "
      << opt.connections * opt.window << " requests in flight ("
      << opt.connections << " conns x window " << opt.window
      << "); achieved " << leg.rps << " req/s, queue p50 "
      << svc_stats.queue_hist.p50() << " ms\n";
  if (opt.spec_mix > 1) {
    for (const auto& lane : router.perSpecStats()) {
      const auto replies = static_cast<double>(spec_replies[lane.spec->id]);
      out << "spec " << lane.spec->id << " (" << lane.spec->name
          << "):  " << replies / (wall_ms / 1000.0) << " req/s, "
          << lane.stats.submitted << " submitted, " << lane.stats.solved
          << " solved, cache hit rate " << lane.stats.cacheHitRate() << '\n';
    }
  }
  leg.report = out.str();
  leg.accounted = solved + rejected + wire_errors == latencies.size();

  leg.records = {
      {"net_requests_per_sec", leg.rps, "req/s"},
      {"net_latency_p50", p50, "ms"},
      {"net_latency_p90", p90, "ms"},
      {"net_latency_p99", p99, "ms"},
      {"net_reject_rate", reject_rate, "ratio"},
      {"net_shed_rate", shed_rate, "ratio"},
      {"net_wire_errors", static_cast<double>(wire_errors), "count"},
      {"net_malformed_frames",
       static_cast<double>(net_stats.malformed_frames), "count"},
      {"net_connections", static_cast<double>(opt.connections), "count"},
      {"net_service_queue_p50_ms", svc_stats.queue_hist.p50(), "ms"},
      {"net_service_queue_p99_ms", svc_stats.queue_hist.p99(), "ms"},
  };
  for (std::size_t s = 0; s < opt.spec_mix && opt.spec_mix > 1; ++s)
    leg.spec_records.push_back(
        {"net_requests_per_sec_spec" + std::to_string(s),
         static_cast<double>(spec_replies[s]) / (wall_ms / 1000.0), "req/s"});
  return leg;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--quick") {
      opt.connections = 8;
      opt.requests = 512;
    } else if (arg == "--connections") {
      opt.connections = std::stoul(next());
    } else if (arg == "--requests") {
      opt.requests = std::stoul(next());
    } else if (arg == "--window") {
      opt.window = std::stoul(next());
    } else if (arg == "--workers") {
      opt.workers = std::stoul(next());
    } else if (arg == "--dof") {
      opt.dof = std::stoul(next());
    } else if (arg == "--spec-mix") {
      opt.spec_mix = std::max<std::size_t>(std::stoul(next()), 1);
    } else if (arg == "--json") {
      opt.json_path = next();
    } else if (arg == "--json-append") {
      opt.json_path = next();
      opt.json_append = true;
    } else {
      std::cerr << "unknown option " << arg << '\n';
      return 2;
    }
  }

  const auto chain = dadu::kin::makeSerpentine(opt.dof);
  std::cout << "net_throughput: " << opt.connections << " connections, "
            << opt.requests << " requests, window " << opt.window
            << ", serpentine:" << opt.dof << ", " << opt.spec_mix
            << " spec(s), " << kRuns << " runs\n";

  std::vector<LegResult> runs;
  for (std::size_t r = 0; r < kRuns; ++r) {
    runs.push_back(runLeg(opt, chain));
    std::cout << "run " << r + 1 << ": " << runs.back().rps << " req/s\n";
    // Sanity for the acceptance gate: every reply accounted for.
    if (!runs.back().accounted) {
      std::cerr << "reply accounting mismatch\n";
      return 1;
    }
  }
  std::sort(runs.begin(), runs.end(),
            [](const LegResult& a, const LegResult& b) { return a.rps < b.rps; });
  const LegResult& median = runs[kRuns / 2];
  std::cout << "median run:\n" << median.report
            << "req/s min / median / max over " << kRuns
            << " runs: " << runs.front().rps << " / " << median.rps << " / "
            << runs.back().rps << '\n';

  if (!opt.json_path.empty()) {
    std::vector<bench::MetricRecord> all = median.records;
    all.insert(all.begin() + 1,
               {{"net_requests_per_sec_min", runs.front().rps, "req/s"},
                {"net_requests_per_sec_max", runs.back().rps, "req/s"},
                {"net_runs", static_cast<double>(kRuns), "count"}});
    if (opt.spec_mix > 1) {
      // Multi-spec legs rename their aggregates so they can share one
      // BENCH_net.json with the single-spec leg without name clashes.
      for (auto& rec : all) rec.metric += "_multispec";
      all.push_back(
          {"net_spec_mix", static_cast<double>(opt.spec_mix), "count"});
      all.insert(all.end(), median.spec_records.begin(),
                 median.spec_records.end());
    }
    const bench::RunHeader header = bench::currentRunHeader(argc, argv);
    const bool wrote =
        opt.json_append
            ? bench::appendMetricsJson(opt.json_path, header, all)
            : bench::writeMetricsJson(opt.json_path, header, all);
    if (!wrote) {
      std::cerr << "cannot write " << opt.json_path << '\n';
      return 1;
    }
    std::cout << (opt.json_append ? "appended " : "wrote ") << opt.json_path
              << '\n';
  }
  return 0;
}
