// The two `dadu serve` workloads.
//
//   wire-clustered: one 24-DOF spec, 2 workers, clustered targets (32
//     clusters): the seed cache hits and solves are short, so the
//     reactor, codec, queue and cache reads dominate.
//   wire-cold-mix: specs a = 24 DOF and b = 50 DOF, 1 worker each,
//     uniform targets mixed over both: the cache mostly misses and
//     inserts, solves are long and run fused at high DOF, and requests
//     route across two spec lanes.
//
// Every phase gets a fresh server started with its own defaults.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "helpers.hpp"
#include "wire_load.hpp"

namespace ikbench {

namespace {

constexpr double kMinPhaseS = 0.5;
/// Saturation phases carry the gated figures and take half the run;
/// the open-loop levels, printed for reference only, take what they
/// need for two p99s each.
constexpr double kSaturationPhaseS = 1.0;
constexpr int kMinPhases = 2;
constexpr int kMaxPhases = 24;
/// Open-loop phases are void when the generator itself sent late: its
/// p99 lag must stay below this.
constexpr double kMaxGenLagMs = 1.0;

struct WireWorkload {
  ServerSpec server;
  std::vector<dadu::kin::Chain> chains;
  std::vector<WireTask> tasks;
  /// Leading tasks of each spec, for the layer timings.
  std::vector<std::vector<dadu::workload::IkTask>> spec_tasks;
  std::size_t top = 0;  ///< index of the highest-DOF spec
  std::size_t probe = 0;  ///< index in `tasks` of the set-up probe
};

WireTask toWireTask(const dadu::workload::IkTask& t, std::uint32_t spec,
                    const dadu::kin::Chain& chain) {
  WireTask w;
  w.request.spec_id = spec;
  for (int k = 0; k < 3; ++k) w.request.target[k] = t.target[k];
  w.request.seed.assign(t.seed.data(), t.seed.data() + t.seed.size());
  w.chain = &chain;
  return w;
}

/// The set-up probe: one fixed task on spec 0, the same for every
/// seed, appended after the workload's own tasks.
void addProbe(WireWorkload& w) {
  w.probe = w.tasks.size();
  w.tasks.push_back(toWireTask(
      dadu::workload::generateTask(w.chains[0], 0, {.seed = 1}), 0,
      w.chains[0]));
}

void makeWorkload(const Options& o, WireWorkload& w) {
  w.server.dadu_path = o.dadu;
  if (o.workload == "wire-clustered") {
    w.server.robots = {"serpentine:24"};
    w.server.workers = 2;
    w.chains.push_back(dadu::registry::resolveChainSpec("serpentine:24"));
    // More tasks than any phase sends, so no target repeats exactly.
    const auto tasks = dadu::workload::generateClusteredTasks(
        w.chains[0], 1 << 17, 32, 0.05, {.seed = o.workload_seed});
    for (const auto& t : tasks) w.tasks.push_back(toWireTask(t, 0, w.chains[0]));
    w.spec_tasks.emplace_back(tasks.begin(), tasks.begin() + 64);
    addProbe(w);
    return;
  }
  w.server.robots = {"a=serpentine:24", "b=serpentine:50"};
  w.server.workers = 1;
  w.chains.push_back(dadu::registry::resolveChainSpec("serpentine:24"));
  w.chains.push_back(dadu::registry::resolveChainSpec("serpentine:50"));
  w.top = 1;
  w.spec_tasks.resize(w.chains.size());
  const auto tasks = dadu::workload::generateSpecMixTasks(
      w.chains, 1 << 15, o.workload_seed, {.seed = o.workload_seed});
  for (const auto& st : tasks) {
    w.tasks.push_back(toWireTask(st.task, st.spec_id, w.chains[st.spec_id]));
    if (w.spec_tasks[st.spec_id].size() < 64)
      w.spec_tasks[st.spec_id].push_back(st.task);
  }
  addProbe(w);
}

PhaseConfig saturation(double seconds, bool trace) {
  PhaseConfig c;
  c.seconds = seconds;
  c.trace = trace;
  return c;
}

PhaseConfig openLoopPhase(double rate, double seconds, std::uint64_t seed,
                          bool trace) {
  PhaseConfig c;
  c.open_loop = true;
  c.rate = rate;
  c.seconds = seconds;
  c.schedule_seed = seed;
  c.trace = trace;
  return c;
}

/// Shortest open-loop phase: long enough for a p99 at `rate`, and
/// never under kMinPhaseS.
double phaseSeconds(double rate) {
  return std::max(kMinPhaseS, openLoopSeconds(0.0, rate));
}

/// p99 of how late the generator sent (0 for a closed-loop phase).
double lagP99(const PhaseResult& p) {
  std::vector<double> lag = p.gen_lag_ms;
  return lag.empty() ? 0.0 : percentile(lag, 99, 0);
}

/// Latency of each measured request from when it was due (ms); in a
/// closed loop a request is due when it is sent.
void appendFromDue(const PhaseResult& p, std::vector<double>& out) {
  for (const auto* r : p.measured())
    out.push_back(static_cast<double>(r->reply_ns - r->due_ns) * 1e-6);
}

/// Verified answers inside the measured window per second, optionally
/// for one spec only.
double completedRps(const PhaseResult& p, int spec = -1) {
  std::size_t n = 0;
  const auto window_ns = static_cast<std::int64_t>(p.window_s * 1e9);
  for (const auto* r : p.measured())
    if (r->ok && r->reply_ns <= window_ns &&
        (spec < 0 || r->spec == static_cast<std::uint32_t>(spec)))
      ++n;
  return static_cast<double>(n) / p.window_s;
}

/// Phases at one load level.  Each figure is the median over phases
/// of that phase's own figure: on a shared virtual machine a phase now
/// and then stalls for tens of milliseconds, and a median over fresh
/// servers is robust to it where pooling samples is not.
struct Level {
  std::vector<double> p50_ms, p99_ms;  ///< per phase, from due
  std::vector<double> rps;             ///< verified answers per second
  std::vector<PhaseResult> lagged;     ///< void: generator fell behind

  /// Open-loop phases are sized for a p99; closed-loop ones are not.
  void add(const PhaseResult& p, bool with_p99) {
    rps.push_back(completedRps(p));
    std::vector<double> lat;
    appendFromDue(p, lat);
    p50_ms.push_back(pct(lat, 50, "phase"));
    std::cerr << "    p50 " << num(p50_ms.back()) << " ms";
    if (with_p99) {
      p99_ms.push_back(pct(lat, 99, "phase"));
      std::cerr << ", p99 " << num(p99_ms.back()) << " ms";
    }
    std::cerr << "\n";
  }
};

class WireRun {
 public:
  WireRun(const Options& o, Tally& tally) : o_(o), tally_(tally) {
    makeWorkload(o, w_);
    // More busy threads than cores would measure the scheduler.
    if (w_.server.busyThreads() > hostThreads())
      throw std::runtime_error(
          "thread budget: server workers + reactor + load generator = " +
          std::to_string(w_.server.busyThreads()) + " threads, host has " +
          std::to_string(hostThreads()));
  }

  const WireWorkload& workload() const { return w_; }
  const std::vector<double>& setups() const { return setups_; }

  /// Run one phase.  Each phase starts at its own place in the task
  /// pool, so pooled phases sample distinct tasks; `same_tasks` repeats
  /// the previous phase's tasks instead.
  PhaseResult run(const std::string& name, PhaseConfig c,
                  bool same_tasks = false) {
    if (!same_tasks) first_task_ = (phases_++ * 7919) % w_.tasks.size();
    c.first_task = first_task_;
    c.probe_task = w_.probe;
    PhaseResult p = runPhase(w_.server, w_.tasks, c, kAccuracy);
    tally_.add(p);
    setups_.push_back(p.setup_s);
    std::cerr << "  " << name << ": " << p.measured().size()
              << " measured, setup " << num(p.setup_s) << " s, failed "
              << p.failed << ", max outstanding " << p.max_outstanding;
    if (c.open_loop)
      std::cerr << ", generator lag p99 " << num(lagP99(p)) << " ms";
    if (p.backlog_exceeded) std::cerr << ", held at the backlog cap";
    std::cerr << "\n";
    for (const std::string& f : p.failures) std::cerr << "    " << f << "\n";
    return p;
  }

  /// Run one phase of `config` into `level`.  An open-loop phase whose
  /// generator fell behind its schedule is void: it is left out while
  /// the level has a valid phase to report instead.
  void runInto(Level& level, const std::string& name, PhaseConfig config,
               std::uint64_t salt) {
    config.schedule_seed = o_.workload_seed ^ (salt + level.rps.size() +
                                               level.lagged.size());
    PhaseResult p = run(name, config);
    if (config.open_loop && lagP99(p) > kMaxGenLagMs) {
      std::cerr << "    void: load generator fell behind its schedule\n";
      level.lagged.push_back(std::move(p));
      return;
    }
    level.add(p, config.open_loop);
  }

  /// A level whose every phase was void reports them all, flagged.
  static void settle(Level& level, const std::string& name) {
    if (!level.rps.empty()) return;
    std::cerr << "ikbench: " << name
              << ": every phase void (generator lag); reporting them\n";
    for (const PhaseResult& p : level.lagged) level.add(p, true);
  }

 private:
  const Options& o_;
  Tally& tally_;
  WireWorkload w_;
  std::vector<double> setups_;
  std::size_t phases_ = 0;
  std::size_t first_task_ = 0;
};

void writeSpans(const Options& o, const PhaseResult& sat,
                const PhaseResult& heavy) {
  if (o.spans_dir.empty()) return;
  std::filesystem::create_directories(o.spans_dir);
  std::ofstream f(o.spans_dir + "/" + o.workload + "-seed" +
                  std::to_string(o.seed) + ".csv");
  f << "phase,request,spec,due_ns,send_ns,reply_ns,encode_ns,decode_ns,"
       "queue_ms,solve_ms,iterations,from_cache\n";
  for (const auto* p : {&sat, &heavy})
    for (std::size_t i = 0; i < p->records.size(); ++i) {
      const auto& r = p->records[i];
      f << (p == &sat ? "saturation" : "heavy") << "," << i << "," << r.spec
        << "," << r.due_ns << "," << r.send_ns << "," << r.reply_ns << ","
        << r.encode_ns << "," << r.decode_ns << "," << r.queue_ms << ","
        << r.solve_ms << "," << r.iterations << "," << r.from_cache << "\n";
    }
}

}  // namespace

void runWire(const Options& o, Report& report, Tally& tally) {
  WireRun wr(o, tally);
  const double T = o.seconds;

  if (!o.trace) {
    // Rounds interleave the levels, so each samples the whole run:
    // this host's CPU speed drifts by tens of percent over seconds.
    wr.run("warm-up", saturation(0.06 * T, false));
    const auto phases = [&](double share, double phase_s) {
      return std::clamp(static_cast<int>(share * T / phase_s), kMinPhases,
                        kMaxPhases);
    };
    const double light_s = phaseSeconds(o.light_rps);
    const double heavy_s = phaseSeconds(o.heavy_rps);
    const int sat_phases = phases(0.5, kSaturationPhaseS);
    const int light_phases = phases(0.1, light_s);
    const int heavy_phases = phases(0.1, heavy_s);
    const int rounds = std::max({sat_phases, light_phases, heavy_phases});
    Level sat, light, heavy;
    // Saturation phases only: each server's set-up time, and the host's
    // speed on this thread just before the server is started from it.
    std::vector<double> setups, speeds, scaled_setups;
    for (int r = 0; r < rounds; ++r) {
      if (r < sat_phases) {
        speeds.push_back(hostSpeed(kSpeedProbeS));
        wr.runInto(sat, "saturation", saturation(kSaturationPhaseS, false),
                   0);
        setups.push_back(wr.setups().back());
        scaled_setups.push_back(timeAtRefSpeed(setups.back(), speeds.back()));
      }
      if (r < light_phases)
        wr.runInto(light, "light",
                   openLoopPhase(o.light_rps, light_s, 0, false), 0x10);
      if (r < heavy_phases)
        wr.runInto(heavy, "heavy",
                   openLoopPhase(o.heavy_rps, heavy_s, 0, false), 0x20);
    }
    WireRun::settle(light, "light");
    WireRun::settle(heavy, "heavy");

    // Throughput is not scaled: the server's solver threads run on
    // other vCPUs than the probe, and when this host lets one vCPU run
    // fast the probe reads up to 40% above a speed they never get.
    report.add("setup_s", median(scaled_setups), "s");
    report.add("throughput_rps", median(sat.rps), "1/s");
    report.addReference("raw_setup_s", median(setups), "s");
    report.addReference("host_speed", median(speeds), "1/s");
    report.addReference("latency_p50_ms", median(light.p50_ms), "ms");
    report.addReference("latency_p99_ms", median(light.p99_ms), "ms");
    report.addReference("heavy_latency_p50_ms", median(heavy.p50_ms), "ms");
    report.addReference("heavy_latency_p99_ms", median(heavy.p99_ms), "ms");
    return;
  }

  // Traced pass: saturation untraced and traced, alternating, then one
  // traced heavy phase; spans stay in memory until the end.
  std::vector<double> plain_rps, traced_rps;
  PhaseResult sat;
  wr.run("warm-up", saturation(0.06 * T, false));
  for (int r = 0; r < 2; ++r) {
    plain_rps.push_back(
        completedRps(wr.run("saturation", saturation(0.1 * T, false))));
    sat = wr.run("saturation traced", saturation(0.1 * T, true), true);
    traced_rps.push_back(completedRps(sat));
  }
  const PhaseResult heavy = wr.run(
      "heavy traced",
      openLoopPhase(o.heavy_rps, openLoopSeconds(0.3 * T, o.heavy_rps),
                    o.workload_seed ^ 0x20, true));
  const WireWorkload& w = wr.workload();
  const LayerTimes lt =
      timeLayers(w.chains[w.top], w.spec_tasks[w.top], o.workload_seed);
  std::vector<HeadWalkUs> spec_hw(w.chains.size());
  for (std::size_t s = 0; s < w.chains.size(); ++s)
    spec_hw[s] = s == w.top ? HeadWalkUs{lt.head_us, lt.walk_us}
                            : timeHeadWalk(w.chains[s], w.spec_tasks[s]);

  // Means over every request of the last traced saturation phase,
  // matching the server's histograms, which cover set-up and warm-up.
  const ServeStats& ss = sat.server;
  double rtt = 0.0, queue_solve = 0.0;
  for (const auto& r : sat.records) {
    rtt += static_cast<double>(r.reply_ns - r.send_ns) * 1e-6;
    queue_solve += r.queue_ms + r.solve_ms;
  }
  const double nrec = static_cast<double>(sat.records.size());
  rtt /= nrec;
  queue_solve /= nrec;
  // Solver split over the measured requests only: each request's
  // iterations times the head and walk timed at its own spec's DOF,
  // against the solve time the server reported for it.  In a fused
  // batch that solve time is the lane's wall time, shared with its
  // batchmates.
  double iters = 0.0, converged = 0.0, solve_ms_sum = 0.0, head_ms_sum = 0.0,
         walk_ms_sum = 0.0;
  const auto measured = sat.measured();
  for (const auto* r : measured) {
    iters += r->iterations;
    if (r->ok) converged += 1.0;
    solve_ms_sum += r->solve_ms;
    head_ms_sum += r->iterations * spec_hw[r->spec].head_us * 1e-3;
    walk_ms_sum += r->iterations * spec_hw[r->spec].walk_us * 1e-3;
  }
  const double nmeas = static_cast<double>(measured.size());
  iters /= nmeas;
  const double wire_e2e = ss.at("dadu_net_wire_e2e_ms_mean");

  std::vector<double> net_self, queue_ms, solve_ms;
  for (const auto* r : heavy.measured()) {
    net_self.push_back(static_cast<double>(r->reply_ns - r->send_ns) * 1e-6 -
                       r->queue_ms - r->solve_ms);
    queue_ms.push_back(r->queue_ms);
    solve_ms.push_back(r->solve_ms);
  }
  const double solved = ss.at("dadu_service_solved");
  const double submitted = ss.at("dadu_service_submitted");
  const double lookups =
      ss.at("dadu_service_cache_hits") + ss.at("dadu_service_cache_misses");
  const double rejected = ss.at("dadu_service_rejected_queue_full") +
                          ss.at("dadu_service_rejected_shutdown") +
                          ss.at("dadu_service_rejected_overloaded");
  const double walk_share = walk_ms_sum / solve_ms_sum;
  const double head_share = head_ms_sum / solve_ms_sum;
  std::cerr << "attribution of the client-observed mean (saturation): "
            << "service queue+solve " << num(queue_solve / rtt)
            << ", server reactor/codec/socket "
            << num((wire_e2e - queue_solve) / rtt)
            << ", unattributed (client side, kernel loopback, scheduler) "
            << num((rtt - wire_e2e) / rtt) << "\n";
  writeSpans(o, sat, heavy);

  const double mismatch = sat.server.at("dadu_net_spec_mismatch") +
                          heavy.server.at("dadu_net_spec_mismatch");

  report.add("gen.lag_ms_p99", pct(heavy.gen_lag_ms, 99, "generator lag"),
             "ms");
  report.add("net.self_ms_p99", pct(net_self, 99, "heavy"), "ms");
  report.add("net.server_self_ms_mean", wire_e2e - queue_solve, "ms");
  report.add("net.client_self_ms_mean", rtt - wire_e2e, "ms");
  report.add("net.codec_us", lt.codec_us, "us");
  report.add("net.bytes_per_request",
             (ss.at("dadu_net_bytes_read") + ss.at("dadu_net_bytes_written")) /
                 ss.at("dadu_net_frames_received"),
             "bytes");
  report.add("net.read_pauses", ss.at("dadu_net_read_pauses"), "count");
  report.add("registry.spec0_rps", completedRps(sat, 0), "1/s");
  report.add("registry.spec1_rps", completedRps(sat, 1), "1/s");
  report.add("registry.spec_mismatch", mismatch, "count");
  report.add("service.queue_ms_p50", pct(queue_ms, 50, "heavy"), "ms");
  report.add("service.queue_ms_p99", pct(queue_ms, 99, "heavy"), "ms");
  report.add("service.solve_ms_p50", pct(solve_ms, 50, "heavy"), "ms");
  report.add("service.solve_ms_p99", pct(solve_ms, 99, "heavy"), "ms");
  report.add("service.cache_hit_ratio",
             lookups > 0 ? ss.at("dadu_service_cache_hits") / lookups : 0.0,
             "ratio");
  report.add("service.cache_inserts_per_request",
             ss.at("dadu_service_cache_inserts") / submitted, "ratio");
  report.add("service.batch_occupancy_mean",
             ss.at("dadu_service_batch_mean_occupancy"), "lanes");
  report.add("service.iterations_per_solve",
             ss.at("dadu_service_iterations") / solved, "iterations");
  report.add("service.reject_ratio", rejected / submitted, "ratio");
  report.add("solvers.iterations_per_solve", iters, "iterations");
  report.add("solvers.converged_ratio", converged / nmeas, "ratio");
  report.add("solvers.head_us", lt.head_us, "us");
  report.add("solvers.self_share", 1.0 - head_share - walk_share, "ratio");
  report.add("kinematics.walk_us", lt.walk_us, "us");
  report.add("kinematics.grouped_walk_us_per_lane", lt.grouped_walk_us_per_lane,
             "us");
  report.add("kinematics.walk_share", walk_share, "ratio");
  report.add("kinematics.fk_evals_per_solve",
             ss.at("dadu_service_fk_evaluations") / solved, "count");
  report.add("trace.coverage", wire_e2e / rtt, "ratio");
  report.add("trace.overhead", median(traced_rps) / median(plain_rps), "ratio");
}

}  // namespace ikbench
