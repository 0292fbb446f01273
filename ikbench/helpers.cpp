#include "helpers.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>

#include "dadu/kinematics/forward.hpp"

namespace ikbench {

namespace {

// 1-based nearest rank of percentile p over n samples.  p * n is exact
// in double for every (p, n) the benchmark uses, so the ceiling does
// not wobble on rounding.
std::size_t nearestRank(double p, std::size_t n) {
  const double r = std::ceil(p * static_cast<double>(n) / 100.0);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

// One pass of the host speed kernel: chain 100 joint transforms, each
// a rotation about z by an angle that moves with `pass` (so no call
// can be folded away) followed by a fixed offset.
double referencePass(std::uint64_t pass) {
  double m[12] = {1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0};
  for (int j = 0; j < 100; ++j) {
    const double th = 0.01 * j + 1e-9 * static_cast<double>(pass);
    const double c = std::cos(th), s = std::sin(th);
    const double r[12] = {c, -s, 0, 0.1, s, c, 0, 0, 0, 0, 1, 0.05};
    double n[12];
    for (int row = 0; row < 3; ++row)
      for (int col = 0; col < 4; ++col)
        n[row * 4 + col] = m[row * 4] * r[col] + m[row * 4 + 1] * r[4 + col] +
                           m[row * 4 + 2] * r[8 + col] +
                           (col == 3 ? m[row * 4 + 3] : 0.0);
    std::copy(n, n + 12, m);
  }
  return m[3];
}

}  // namespace

double percentile(std::vector<double>& values, double p,
                  std::size_t min_beyond) {
  const std::size_t n = values.size();
  if (n == 0 || p <= 0.0 || p > 100.0 || n < minSamplesFor(p, min_beyond))
    return std::numeric_limits<double>::quiet_NaN();
  const std::size_t rank = nearestRank(p, n);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double hostSpeed(double seconds) {
  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  std::uint64_t passes = 0;
  double sink = 0.0, elapsed = 0.0;
  do {
    sink += referencePass(passes++);
    elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (elapsed < seconds);
  volatile double keep = sink;
  (void)keep;
  return static_cast<double>(passes) / elapsed;
}

std::size_t minSamplesFor(double p, std::size_t min_beyond) {
  std::size_t n = min_beyond + 1;
  while (n - nearestRank(p, n) < min_beyond) ++n;
  return n;
}

std::uint64_t mixSeed(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::vector<std::int64_t> poissonSchedule(double rate_per_s,
                                          std::size_t count,
                                          std::uint64_t seed) {
  std::vector<std::int64_t> due;
  if (!(rate_per_s > 0.0)) return due;
  due.reserve(count);
  std::mt19937_64 rng(seed);
  double t_ns = 0.0;
  while (due.size() < count) {
    // u in (0, 1]: 53 random bits, shifted off zero so log() is finite.
    const double u = (static_cast<double>(rng() >> 11) + 1.0) * 0x1.0p-53;
    t_ns += -std::log(u) / rate_per_s * 1e9;
    due.push_back(static_cast<std::int64_t>(t_ns));
  }
  return due;
}

Verdict verifyAnswer(const dadu::kin::Chain& chain,
                     const dadu::linalg::Vec3& target, const double* theta,
                     std::size_t theta_len, double reported_error,
                     double accuracy, double tolerance) {
  Verdict v;
  if (theta_len != chain.dof()) {
    v.why = "theta has " + std::to_string(theta_len) + " joints, chain has " +
            std::to_string(chain.dof());
    return v;
  }
  dadu::linalg::VecX q(theta_len);
  for (std::size_t i = 0; i < theta_len; ++i) {
    if (!std::isfinite(theta[i])) {
      v.why = "non-finite joint angle";
      return v;
    }
    q[i] = theta[i];
  }
  v.fk_error = (target - dadu::kin::endEffectorPosition(chain, q)).norm();
  if (!(v.fk_error < accuracy)) {
    v.why = "end effector misses target by " + std::to_string(v.fk_error);
    return v;
  }
  if (!(std::abs(v.fk_error - reported_error) <= tolerance)) {
    v.why = "reported error " + std::to_string(reported_error) +
            " != recomputed " + std::to_string(v.fk_error);
    return v;
  }
  v.ok = true;
  return v;
}

double ServeStats::at(const std::string& name) const {
  const auto it = values.find(name);
  if (it == values.end())
    throw std::out_of_range("dadu serve did not report metric '" + name +
                            "'");
  return it->second;
}

ServeStats parseServeStats(const std::string& text) {
  // The array opens on a line of its own, after the startup banner.
  std::size_t start = text.compare(0, 2, "[\n") == 0 ? 0 : text.find("\n[\n");
  if (start == std::string::npos)
    throw std::runtime_error("no JSON stats array in dadu serve output");
  if (start != 0) ++start;
  const std::size_t close = text.find("\n]", start);
  if (close == std::string::npos)
    throw std::runtime_error("unterminated JSON stats array");

  ServeStats stats;
  std::istringstream lines(text.substr(start + 1, close - start));
  std::string line;
  const std::string metric_key = "\"metric\": \"";
  const std::string value_key = "\"value\": ";
  while (std::getline(lines, line)) {
    const std::size_t m = line.find(metric_key);
    if (m == std::string::npos) continue;
    const std::size_t name_begin = m + metric_key.size();
    const std::size_t name_end = line.find('"', name_begin);
    const std::size_t v = line.find(value_key, name_end);
    if (name_end == std::string::npos || v == std::string::npos)
      throw std::runtime_error("malformed stats record: " + line);
    const std::string name = line.substr(name_begin, name_end - name_begin);
    const std::size_t value_begin = v + value_key.size();
    if (value_begin < line.size() && line[value_begin] == '"') {
      const std::size_t value_end = line.find('"', value_begin + 1);
      if (value_end == std::string::npos)
        throw std::runtime_error("malformed stats record: " + line);
      stats.infos[name] =
          line.substr(value_begin + 1, value_end - value_begin - 1);
      continue;
    }
    std::size_t used = 0;
    double value = 0.0;
    try {
      value = std::stod(line.substr(value_begin), &used);
    } catch (const std::exception&) {
      used = 0;
    }
    if (used == 0) throw std::runtime_error("malformed stats record: " + line);
    stats.values[name] = value;
  }
  if (stats.values.empty())
    throw std::runtime_error("empty JSON stats array in dadu serve output");
  return stats;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double x : values) sum += x;
  return sum / static_cast<double>(values.size());
}

}  // namespace ikbench
