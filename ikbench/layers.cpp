// Per-layer micro-timings, taken by calling each layer's public entry
// points from the benchmark: the wire codec (net), the serial head of
// a Quick-IK iteration (solvers, the paper's SPU) and the K-lane
// speculative walk (kinematics, the SSU), single and grouped.
#include <algorithm>
#include <functional>

#include "bench.hpp"
#include "dadu/kinematics/forward_batch.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/solvers/jt_common.hpp"

namespace ikbench {

namespace {

/// Median wall time of one call of `fn` in microseconds, from batches
/// of calls sized to ~200 us, repeated for about `budget_s`.
double medianCallUs(const std::function<void()>& fn, double budget_s) {
  std::size_t batch = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (secondsSince(t0) > 2e-4 || batch >= (1u << 20)) break;
    batch *= 2;
  }
  std::vector<double> per_call;
  const auto start = Clock::now();
  while (per_call.size() < 21 || secondsSince(start) < budget_s) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < batch; ++i) fn();
    per_call.push_back(secondsSince(t0) * 1e6 / static_cast<double>(batch));
  }
  return median(per_call);
}

/// One request's codec round at `dof`: client encodeRequest, server
/// decodeFrame, server encodeResponse, client decodeFrame.
double timeCodecUs(std::size_t dof) {
  dadu::net::WireRequest req;
  req.id = 7;
  req.target[0] = 0.3;
  req.seed.assign(dof, 0.25);
  dadu::net::WireResponse resp;
  resp.id = 7;
  resp.iterations = 12;
  resp.error = 1e-3;
  resp.theta.assign(dof, -0.5);
  std::vector<std::uint8_t> buf;
  dadu::net::DecodedFrame frame;
  return medianCallUs(
      [&] {
        buf.clear();
        dadu::net::encodeRequest(req, buf);
        dadu::net::decodeFrame(buf.data(), buf.size(),
                               dadu::net::kDefaultMaxFrameBytes, frame);
        buf.clear();
        dadu::net::encodeResponse(resp, buf);
        dadu::net::decodeFrame(buf.data(), buf.size(),
                               dadu::net::kDefaultMaxFrameBytes, frame);
      },
      0.2);
}

/// Heads of the first iteration of each task: the walk's inputs.
struct Heads {
  std::vector<dadu::ik::JtWorkspace> ws;
  std::vector<double> alphas;  ///< K per task: alpha_k = k/K * alpha_base
};

Heads firstHeads(const dadu::kin::Chain& chain,
                 const std::vector<dadu::workload::IkTask>& tasks) {
  Heads h;
  h.ws.resize(tasks.size());
  for (std::size_t t = 0; t < tasks.size(); ++t) {
    const auto head = dadu::ik::jtIterationHead(chain, tasks[t].seed,
                                                tasks[t].target, h.ws[t]);
    for (int k = 1; k <= kSpeculations; ++k)
      h.alphas.push_back(head.alpha_base * k / kSpeculations);
  }
  return h;
}

}  // namespace

HeadWalkUs timeHeadWalk(const dadu::kin::Chain& chain,
                        const std::vector<dadu::workload::IkTask>& all_tasks) {
  const std::vector<dadu::workload::IkTask> tasks(
      all_tasks.begin(),
      all_tasks.begin() + static_cast<long>(std::min<std::size_t>(
                              all_tasks.size(), 64)));
  const std::size_t n = tasks.size();
  std::size_t i = 0;
  HeadWalkUs hw;
  dadu::ik::JtWorkspace ws;
  hw.head_us = medianCallUs(
      [&] {
        const auto& t = tasks[i++ % n];
        dadu::ik::jtIterationHead(chain, t.seed, t.target, ws);
      },
      0.25);

  const Heads heads = firstHeads(chain, tasks);
  dadu::kin::BatchedForward walk;
  walk.reset(chain, kSpeculations);
  i = 0;
  hw.walk_us = medianCallUs(
      [&] {
        const std::size_t t = i++ % n;
        walk.evaluateLanes(chain, tasks[t].seed, heads.ws[t].dtheta_base,
                           heads.alphas.data() + t * kSpeculations,
                           tasks[t].target, false, 0, kSpeculations);
      },
      0.25);
  return hw;
}

LayerTimes timeLayers(const dadu::kin::Chain& chain,
                      const std::vector<dadu::workload::IkTask>& tasks,
                      std::uint64_t seed) {
  LayerTimes lt;
  lt.codec_us = timeCodecUs(chain.dof());
  const HeadWalkUs hw = timeHeadWalk(chain, tasks);
  lt.head_us = hw.head_us;
  lt.walk_us = hw.walk_us;

  // Grouped walk: the fused batch shape of the serving path, 16 groups
  // of K lanes at 50 DOF whatever the workload's own DOF.
  constexpr std::size_t kGroups = 16;
  const dadu::kin::Chain chain50 =
      dadu::registry::resolveChainSpec("serpentine:50");
  const auto tasks50 =
      dadu::workload::generateTasks(chain50, kGroups, {.seed = seed});
  const Heads heads50 = firstHeads(chain50, tasks50);
  std::vector<dadu::kin::BatchedForward::LaneGroup> groups(kGroups);
  for (std::size_t g = 0; g < kGroups; ++g)
    groups[g] = {&tasks50[g].seed, &heads50.ws[g].dtheta_base,
                 tasks50[g].target, g * kSpeculations,
                 (g + 1) * kSpeculations};
  dadu::kin::BatchedForward grouped;
  grouped.reset(chain50, kGroups * kSpeculations);
  lt.grouped_walk_us_per_lane =
      medianCallUs(
          [&] {
            grouped.evaluateGrouped(chain50, groups.data(), kGroups,
                                    heads50.alphas.data(), false);
          },
          0.25) /
      static_cast<double>(kGroups * kSpeculations);
  return lt;
}

}  // namespace ikbench
