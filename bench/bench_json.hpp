// Machine-readable bench output: tiny writers for the BENCH_*.json
// performance trajectory files future PRs diff against.
//   BENCH_kernels.json — a {"header": {...}} provenance record, then
//                        {"kernel", "dof", "k", "ns_per_op"} records
//   BENCH_service.json, BENCH_net.json — a {"header": {...}} record,
//                        then {"metric", "value", "unit"} records (an
//                        appended leg adds its own header first)
#pragma once

#include <string>
#include <vector>

namespace bench {

/// One measured kernel configuration.
struct KernelRecord {
  std::string kernel;   ///< kernel name, e.g. "speculation_batched"
  int dof = 0;          ///< chain degrees of freedom (0 = n/a)
  int k = 0;            ///< speculation/batch count (0 = n/a)
  double ns_per_op = 0.0;  ///< nanoseconds per operation
  /// Optional free-form annotation (e.g. the active speculation
  /// backend for a dispatched measurement); omitted from the JSON when
  /// empty so pre-existing records render unchanged.
  std::string note;
};

/// Where and how a set of records was measured; written as the record
/// ahead of them in every BENCH_*.json.
struct RunHeader {
  unsigned nproc = 0;        ///< hardware threads
  std::string spec_backend;  ///< dispatched speculation backend
  std::string build_type;    ///< CMake build type of the bench binary
  std::string commit;        ///< git HEAD of the source tree (+"-dirty"),
                             ///< or "unknown"
  std::string command;       ///< the command line, space-joined
};

/// The header for this process and command line.
RunHeader currentRunHeader(int argc, char** argv);

/// Write `header` and then `records` to `path` as pretty-printed JSON.
/// Returns false if the file cannot be written.
bool writeKernelJson(const std::string& path, const RunHeader& header,
                     const std::vector<KernelRecord>& records);

/// One named scalar (system-level benches: throughput, latency
/// percentiles, hit rates — things that are not per-kernel ns/op).
struct MetricRecord {
  std::string metric;  ///< e.g. "service_solves_per_sec_cache_on"
  double value = 0.0;
  std::string unit;    ///< "solves/s", "ms", "ratio", "iters", ...
};

/// Write `header` and then `records` to `path` as pretty-printed JSON.
/// Returns false if the file cannot be written.
bool writeMetricsJson(const std::string& path, const RunHeader& header,
                      const std::vector<MetricRecord>& records);

/// Append `header` and `records` to an existing metrics JSON file
/// written by writeMetricsJson (splices before the closing bracket), so
/// multiple bench legs can share one BENCH_*.json.  Falls back to a
/// plain write when `path` does not exist or is not a metrics array.
bool appendMetricsJson(const std::string& path, const RunHeader& header,
                       const std::vector<MetricRecord>& records);

}  // namespace bench
