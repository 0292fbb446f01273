#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <thread>

#include "bench.hpp"
#include "helpers.hpp"
#include "wire_load.hpp"

namespace ikbench {

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  entries_.push_back({name, unit, value});
}

void Report::addReference(const std::string& name, double value,
                          const std::string& unit) {
  reference_.push_back({name, unit, value});
}

std::string Report::render(const std::vector<Entry>& entries) {
  std::string s = "{";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i) s += ", ";
    s += "\"" + entries[i].name + "\": {\"value\": " + num(entries[i].value) +
         ", \"unit\": \"" + entries[i].unit + "\"}";
  }
  return s + "}";
}

void Tally::add(std::uint64_t n, std::uint64_t bad,
                const std::vector<std::string>& why) {
  attempted += n;
  failed += bad;
  for (const std::string& f : why)
    if (failures.size() < 8) failures.push_back(f);
}

void Tally::add(const PhaseResult& phase) {
  add(phase.attempted, phase.failed, phase.failures);
  books_balance = books_balance && phase.books_balance;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double pct(std::vector<double> values, double p, const std::string& what) {
  const double v = percentile(values, p);
  if (std::isnan(v))
    throw std::runtime_error(what + ": " + std::to_string(values.size()) +
                             " samples cannot support p" + num(p));
  return v;
}

double openLoopSeconds(double seconds, double rate) {
  return std::max(seconds,
                  1.1 * static_cast<double>(minSamplesFor(99.0)) / rate);
}

unsigned hostThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto mid = values.begin() + static_cast<long>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  return 0.5 * (upper + *std::max_element(values.begin(), mid));
}

}  // namespace ikbench
