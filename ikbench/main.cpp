// ikbench: the repository benchmark program.
//
//   ikbench --workload <solve-100dof|wire-clustered|wire-cold-mix>
//           --seed N --seconds S --trace 0|1 --dadu PATH
//           [--light-rps R --heavy-rps R]   (wire workloads)
//           [--spans-dir DIR] [--header-json JSON]
//
// run.py builds this and passes the wire workloads' open-loop rates
// from workloads.json.  With --trace 0 the run measures the end-to-end
// metrics; with --trace 1 it runs a separate traced pass and reports
// the per-layer metrics.  Every answer is verified either way.  The
// last stdout line is the result object; the run exits 1 when any
// answer or reply count is wrong.
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "dadu/kinematics/backends/spec_backend.hpp"
#include "helpers.hpp"
#include "wire_load.hpp"

namespace {

static_assert(ikbench::kConnections <= 4, "at most 4 connections");

struct Args {
  ikbench::Options options;
  std::string header_json = "{}";
};

Args parseArgs(int argc, char** argv) {
  if (argc % 2 == 0) throw std::invalid_argument("every flag takes one value");
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0)
      throw std::invalid_argument("unexpected argument '" + key + "'");
    kv[key.substr(2)] = argv[i + 1];
  }
  const auto need = [&](const std::string& k) {
    const auto it = kv.find(k);
    if (it == kv.end()) throw std::invalid_argument("missing --" + k);
    return it->second;
  };
  Args a;
  ikbench::Options& o = a.options;
  o.workload = need("workload");
  o.seed = std::stoull(need("seed"));
  o.workload_seed = ikbench::mixSeed(o.seed);
  o.seconds = std::stod(need("seconds"));
  o.trace = need("trace") == "1";
  o.dadu = need("dadu");
  if (kv.count("spans-dir")) o.spans_dir = kv["spans-dir"];
  if (kv.count("header-json")) a.header_json = kv["header-json"];
  if (!(o.seconds > 0.0)) throw std::invalid_argument("seconds must be > 0");
  if (o.workload != "solve-100dof") {
    o.light_rps = std::stod(need("light-rps"));
    o.heavy_rps = std::stod(need("heavy-rps"));
    if (!(o.light_rps > 0.0) || !(o.heavy_rps > 0.0))
      throw std::invalid_argument("rates must be > 0");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parseArgs(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "ikbench: " << e.what() << "\n";
    return 2;
  }
  const ikbench::Options& o = args.options;

  const unsigned nproc = ikbench::hostThreads();
  std::cout << "{\"header\": " << args.header_json << ", \"nproc\": " << nproc
            << ", \"spec_backend\": \"" << dadu::kin::activeSpecBackendName()
            << "\", \"compiler\": \"" << __VERSION__ << "\", \"workload\": \""
            << o.workload << "\", \"seed\": " << o.seed
            << ", \"workload_seed\": " << o.workload_seed
            << ", \"trace\": " << o.trace << "}" << std::endl;

  ikbench::Report report;
  ikbench::Tally tally;
  try {
    if (o.workload == "solve-100dof") {
      ikbench::runSolve100(o, report, tally);
    } else if (o.workload == "wire-clustered" ||
               o.workload == "wire-cold-mix") {
      ikbench::runWire(o, report, tally);
    } else {
      std::cerr << "ikbench: unknown workload '" << o.workload << "'\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "ikbench: " << e.what() << "\n";
    return 1;
  }
  // Any failure already makes the run incorrect, so the ratio is
  // printed for reference only.
  if (!o.trace && tally.attempted > 0)
    report.addReference("fail_ratio",
                        static_cast<double>(tally.failed) /
                            static_cast<double>(tally.attempted),
                        "ratio");
  for (const std::string& f : tally.failures)
    std::cerr << "ikbench: failure: " << f << "\n";
  if (report.hasReference())
    std::cout << "{\"reference\": " << report.referenceJson() << "}\n";
  const bool correct = tally.failed == 0 && tally.books_balance;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << tally.attempted
            << ", \"failed\": " << tally.failed
            << ", \"metrics\": " << report.json() << "}" << std::endl;
  return correct ? 0 : 1;
}
