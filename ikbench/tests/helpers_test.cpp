// Tests of the benchmark's own helpers.  Build and run with
// `python3 ikbench/run.py --self-test`.
#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dadu/kinematics/forward.hpp"
#include "dadu/registry/robot_spec_registry.hpp"
#include "dadu/workload/targets.hpp"
#include "helpers.hpp"

namespace {

using ikbench::minSamplesFor;
using ikbench::percentile;

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v;
  for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankOnAShuffledRamp) {
  auto v = ramp(1000);
  EXPECT_EQ(percentile(v, 99), 990.0);
  v = ramp(1000);
  EXPECT_EQ(percentile(v, 50), 500.0);
  v = ramp(2000);
  EXPECT_EQ(percentile(v, 99), 1980.0);
}

TEST(Percentile, NeedsTenSamplesBeyondTheRank) {
  EXPECT_EQ(minSamplesFor(99), 1000u);
  EXPECT_EQ(minSamplesFor(50), 20u);
  auto enough = ramp(1000);
  EXPECT_FALSE(std::isnan(percentile(enough, 99)));
  auto short_by_one = ramp(999);
  EXPECT_TRUE(std::isnan(percentile(short_by_one, 99)));
  std::vector<double> empty;
  EXPECT_TRUE(std::isnan(percentile(empty, 50)));
}

TEST(PoissonSchedule, DeterministicInTheSeed) {
  const auto a = ikbench::poissonSchedule(2000.0, 4000, 42);
  const auto b = ikbench::poissonSchedule(2000.0, 4000, 42);
  const auto c = ikbench::poissonSchedule(2000.0, 4000, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(PoissonSchedule, CountRateAndOrder) {
  const auto s = ikbench::poissonSchedule(5000.0, 20000, 7);
  ASSERT_EQ(s.size(), 20000u);
  for (std::size_t i = 1; i < s.size(); ++i) ASSERT_LE(s[i - 1], s[i]);
  EXPECT_GE(s.front(), 0);
  // 20000 exponential gaps of mean 200 us: the span is 4 s within
  // 5 sd (sd = 4 s / sqrt(20000), about 0.7%).
  EXPECT_NEAR(static_cast<double>(s.back()), 4e9, 5 * 4e9 / std::sqrt(2e4));
  EXPECT_TRUE(ikbench::poissonSchedule(0.0, 10, 1).empty());
}

TEST(MixSeed, GivesSmallSeedsIndependentTasks) {
  EXPECT_EQ(ikbench::mixSeed(1), ikbench::mixSeed(1));
  EXPECT_NE(ikbench::mixSeed(1), ikbench::mixSeed(2));
  // With raw seed 2, task 6's start configuration is task 5's shifted
  // by one joint; with the mixed seed it shares nothing.
  const auto chain = dadu::registry::resolveChainSpec("serpentine:24");
  const auto shifted = [&](std::uint64_t seed) {
    const auto a = dadu::workload::generateTask(chain, 5, {.seed = seed});
    const auto b = dadu::workload::generateTask(chain, 6, {.seed = seed});
    int same = 0;
    for (std::size_t j = 0; j + 1 < chain.dof(); ++j)
      same += a.seed[j + 1] == b.seed[j];
    return same;
  };
  EXPECT_EQ(shifted(2), 23);
  EXPECT_EQ(shifted(ikbench::mixSeed(2)), 0);
}

TEST(Verifier, AcceptsTheGeneratingConfiguration) {
  const auto chain = dadu::registry::resolveChainSpec("serpentine:24");
  const auto task = dadu::workload::generateTask(chain, 3, {.seed = 9});
  const auto v = ikbench::verifyAnswer(chain, task.target,
                                       task.generator.data(),
                                       task.generator.size(), 0.0, 1e-2);
  EXPECT_TRUE(v.ok) << v.why;
  EXPECT_LT(v.fk_error, 1e-12);
}

TEST(Verifier, RejectsACorruptedTheta) {
  const auto chain = dadu::registry::resolveChainSpec("serpentine:24");
  const auto task = dadu::workload::generateTask(chain, 3, {.seed = 9});
  auto theta = task.generator;
  theta[0] += 0.5;  // swings the whole chain about its base joint
  const auto moved = ikbench::verifyAnswer(chain, task.target, theta.data(),
                                           theta.size(), 0.0, 1e-2);
  EXPECT_FALSE(moved.ok);

  theta = task.generator;
  theta[5] = std::nan("");
  EXPECT_FALSE(ikbench::verifyAnswer(chain, task.target, theta.data(),
                                     theta.size(), 0.0, 1e-2)
                   .ok);
  EXPECT_FALSE(ikbench::verifyAnswer(chain, task.target, theta.data(),
                                     theta.size() - 1, 0.0, 1e-2)
                   .ok);
}

TEST(Verifier, RejectsAMisreportedError) {
  const auto chain = dadu::registry::resolveChainSpec("serpentine:24");
  const auto task = dadu::workload::generateTask(chain, 3, {.seed = 9});
  auto theta = task.generator;
  theta[20] += 1e-3;
  const double err =
      (task.target - dadu::kin::endEffectorPosition(chain, theta)).norm();
  ASSERT_GT(err, 0.0);
  ASSERT_LT(err, 1e-2);
  EXPECT_TRUE(ikbench::verifyAnswer(chain, task.target, theta.data(),
                                    theta.size(), err, 1e-2)
                  .ok);
  EXPECT_FALSE(ikbench::verifyAnswer(chain, task.target, theta.data(),
                                     theta.size(), err * 0.5, 1e-2)
                   .ok);
}

TEST(ServeStats, ParsesTheShutdownDump) {
  const std::string out =
      "dadu serve: 1 robot spec(s), 2 workers\n"
      "listening on 127.0.0.1:4242\n"
      "[\n"
      "  {\"metric\": \"dadu_spec_backend\", \"value\": \"avx2\", \"unit\": "
      "\"info\"},\n"
      "  {\"metric\": \"dadu_service_submitted\", \"value\": 1234.000000, "
      "\"unit\": \"count\"},\n"
      "  {\"metric\": \"dadu_net_wire_e2e_ms_mean\", \"value\": 0.125000, "
      "\"unit\": \"ms\"}\n"
      "]\n";
  const auto s = ikbench::parseServeStats(out);
  EXPECT_EQ(s.at("dadu_service_submitted"), 1234.0);
  EXPECT_EQ(s.at("dadu_net_wire_e2e_ms_mean"), 0.125);
  EXPECT_EQ(s.infos.at("dadu_spec_backend"), "avx2");
  EXPECT_THROW(s.at("dadu_missing"), std::out_of_range);
}

TEST(ServeStats, RejectsMissingOrMalformedDumps) {
  EXPECT_THROW(ikbench::parseServeStats("listening on 127.0.0.1:1\n"),
               std::runtime_error);
  EXPECT_THROW(ikbench::parseServeStats(
                   "[\n  {\"metric\": \"x\", \"value\": oops}\n]\n"),
               std::runtime_error);
  EXPECT_THROW(ikbench::parseServeStats("[\n  {\"metric\": \"x\", \"value\": "
                                        "1.0}\n"),
               std::runtime_error);
}

TEST(HostSpeed, MeasuresForAtLeastTheGivenTime) {
  const auto t0 = std::chrono::steady_clock::now();
  const double speed = ikbench::hostSpeed(0.02);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_GE(elapsed, 0.02);
  EXPECT_TRUE(std::isfinite(speed));
  EXPECT_GT(speed, 0.0);
  // One pass is a 100-joint walk: a few microseconds, not a few
  // nanoseconds (folded away) or milliseconds.
  EXPECT_GT(speed, 1e3);
  EXPECT_LT(speed, 1e8);
}

}  // namespace
