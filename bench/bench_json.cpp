#include "bench_json.hpp"

#include <cstdio>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <thread>

#include "dadu/kinematics/backends/spec_backend.hpp"

#ifndef DADU_BUILD_TYPE
#define DADU_BUILD_TYPE "unknown"
#endif

namespace bench {

namespace {

void writeMetricRecords(std::ostream& out,
                        const std::vector<MetricRecord>& records) {
  for (std::size_t i = 0; i < records.size(); ++i) {
    const MetricRecord& r = records[i];
    out << "  {\"metric\": \"" << r.metric << "\", \"value\": "
        << std::setprecision(6) << std::fixed << r.value << ", \"unit\": \""
        << r.unit << "\"}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
}

std::string jsonEscape(const std::string& text) {
  std::string out;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out;
}

/// HEAD of the tree the bench was built from, "-dirty" when it has
/// uncommitted changes.
std::string sourceCommit() {
#ifdef DADU_SOURCE_DIR
  const std::string cmd = "git -C \"" DADU_SOURCE_DIR
                          "\" describe --always --dirty --abbrev=40 2>/dev/null";
  if (FILE* pipe = popen(cmd.c_str(), "r")) {
    char buf[64] = {};
    const bool got = std::fgets(buf, sizeof buf, pipe) != nullptr;
    pclose(pipe);
    std::string sha = got ? buf : "";
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
      sha.pop_back();
    if (!sha.empty()) return sha;
  }
#endif
  return "unknown";
}

void writeHeaderRecord(std::ostream& out, const RunHeader& header) {
  out << "  {\"header\": {\"nproc\": " << header.nproc
      << ", \"spec_backend\": \"" << jsonEscape(header.spec_backend)
      << "\", \"build_type\": \"" << jsonEscape(header.build_type)
      << "\", \"commit\": \"" << jsonEscape(header.commit)
      << "\", \"command\": \"" << jsonEscape(header.command) << "\"}}";
}

}  // namespace

RunHeader currentRunHeader(int argc, char** argv) {
  RunHeader header;
  header.nproc = std::thread::hardware_concurrency();
  header.spec_backend = dadu::kin::activeSpecBackendName();
  header.build_type = DADU_BUILD_TYPE;
  header.commit = sourceCommit();
  for (int i = 0; i < argc; ++i)
    header.command += (i > 0 ? " " : "") + std::string(argv[i]);
  return header;
}

bool writeKernelJson(const std::string& path, const RunHeader& header,
                     const std::vector<KernelRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  writeHeaderRecord(out, header);
  out << (records.empty() ? "" : ",") << "\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const KernelRecord& r = records[i];
    out << "  {\"kernel\": \"" << r.kernel << "\", \"dof\": " << r.dof
        << ", \"k\": " << r.k << ", \"ns_per_op\": " << std::setprecision(6)
        << std::fixed << r.ns_per_op;
    if (!r.note.empty()) out << ", \"note\": \"" << r.note << "\"";
    out << "}" << (i + 1 < records.size() ? "," : "") << "\n";
  }
  out << "]\n";
  return out.good();
}

bool writeMetricsJson(const std::string& path, const RunHeader& header,
                      const std::vector<MetricRecord>& records) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[\n";
  writeHeaderRecord(out, header);
  out << (records.empty() ? "" : ",") << "\n";
  writeMetricRecords(out, records);
  out << "]\n";
  return out.good();
}

bool appendMetricsJson(const std::string& path, const RunHeader& header,
                       const std::vector<MetricRecord>& records) {
  std::ifstream in(path);
  if (!in) return writeMetricsJson(path, header, records);
  std::ostringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string existing = buf.str();
  const std::size_t close = existing.rfind(']');
  if (close == std::string::npos)
    return writeMetricsJson(path, header, records);
  existing.erase(close);
  // Trim trailing whitespace so the comma lands right after the last
  // record, keeping the file diff-stable with writeMetricsJson output.
  while (!existing.empty() &&
         (existing.back() == '\n' || existing.back() == ' '))
    existing.pop_back();
  const bool had_records = !existing.empty() && existing.back() == '}';

  std::ofstream out(path);
  if (!out) return false;
  out << existing << (had_records ? "," : "") << "\n";
  writeHeaderRecord(out, header);
  out << (records.empty() ? "" : ",") << "\n";
  writeMetricRecords(out, records);
  out << "]\n";
  return out.good();
}

}  // namespace bench
