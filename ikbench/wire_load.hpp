// Load generation against a real `dadu serve` child process.
//
// Each phase starts a fresh server, connects at most four sockets and
// drives them from ONE thread: a spinning poll() loop that encodes
// requests with the public wire codec, sends them closed-loop (a fixed
// window per connection) or open-loop (a seeded Poisson schedule, each
// request timed from when it was due), and decodes every reply.  The
// answers are verified after the phase, off the timed path.  The
// server is then stopped with SIGTERM and its JSON counters parsed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include <sys/types.h>

#include "dadu/kinematics/chain.hpp"
#include "dadu/net/wire.hpp"
#include "helpers.hpp"

namespace ikbench {

/// Hard budget for the load generator: one process, this many driving
/// threads and this many connections.
inline constexpr unsigned kGeneratorThreads = 1;
inline constexpr int kConnections = 4;
/// Closed loop: requests in flight per connection.
inline constexpr int kWindow = 16;
/// Closed-loop warm-up of every phase: verified, not timed.
inline constexpr int kWarmupRequests = 256;
/// Open loop: hold sends while this many requests are outstanding.
/// Below the server's default queue capacity (1024), so a stall or an
/// overload shows as latency (requests stay timed from when they were
/// due) instead of rejects.
inline constexpr std::size_t kBacklogCap = 768;

/// How `dadu serve` is started for a workload.  Only --robot,
/// --workers, --port 0 and --stats-format json are passed, so every
/// other setting is the server's own default.
struct ServerSpec {
  std::string dadu_path;
  std::vector<std::string> robots;  ///< one --robot binding each
  int workers = 1;

  /// Threads that run at once during a phase: the server's workers
  /// (per spec lane) and its reactor, plus the load generator.
  unsigned busyThreads() const {
    return static_cast<unsigned>(workers) *
               static_cast<unsigned>(robots.size()) +
           1 + kGeneratorThreads;
  }
};

/// A running `dadu serve`.  The destructor kills and reaps a server
/// that was not stopped, so no child outlives an exception.
class ServeProcess {
 public:
  explicit ServeProcess(const ServerSpec& spec);
  ~ServeProcess();
  ServeProcess(const ServeProcess&) = delete;
  ServeProcess& operator=(const ServeProcess&) = delete;

  std::uint16_t port() const { return port_; }

  /// SIGTERM, read the counter dump to EOF, reap, require exit 0.
  ServeStats stop();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::string output_;
  std::uint16_t port_ = 0;
};

/// One request the generator can send: the wire request (id filled
/// per send) and the chain it targets, for verification.
struct WireTask {
  dadu::net::WireRequest request;
  const dadu::kin::Chain* chain = nullptr;
};

struct PhaseConfig {
  bool open_loop = false;
  double rate = 0.0;        ///< open loop: offered req/s
  /// Measured window.  An open-loop phase sends rate x seconds requests
  /// (at least enough for a p99) and lasts as long as they take.
  double seconds = 1.0;
  std::uint64_t schedule_seed = 0;
  std::size_t first_task = 0;  ///< the phase sends tasks from here on
  /// The set-up probe, sent first: one fixed task in every phase, so
  /// that set-up time does not vary with the length of a solve.
  std::size_t probe_task = 0;
  /// Record codec spans (encode/decode time per request) as well.
  bool trace = false;
};

/// Per-request record.  Times are ns from the start of the measured
/// window; `part` is 0 for the set-up probe, 1 for warm-up and 2 for
/// measured requests.
struct RequestRecord {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t reply_ns = 0;
  std::int64_t encode_ns = 0;  ///< traced only
  std::int64_t decode_ns = 0;  ///< traced only
  double queue_ms = 0.0;
  double solve_ms = 0.0;
  double error = 0.0;
  std::int32_t iterations = 0;
  std::uint32_t task = 0;
  std::uint32_t spec = 0;
  std::size_t theta_off = 0;  ///< answer's joint angles in the phase store
  std::uint32_t theta_len = 0;
  std::uint8_t part = 0;
  bool answered = false;
  bool from_cache = false;
  bool ok = false;  ///< solved, converged and verified
};

struct PhaseResult {
  double setup_s = 0.0;  ///< spawn -> first reply
  double window_s = 0.0;
  std::vector<RequestRecord> records;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< not ok, plus stray replies
  std::uint64_t stray_replies = 0;  ///< unknown, duplicate or misrouted ids
  bool books_balance = false;  ///< server frame counters match what was sent
  std::vector<std::string> failures;  ///< first few reasons
  bool backlog_exceeded = false;
  std::size_t max_outstanding = 0;
  std::vector<double> gen_lag_ms;  ///< open loop: send - due
  ServeStats server;

  /// Measured (part 2) requests only.
  std::vector<const RequestRecord*> measured() const;
};

/// Run one phase against a fresh server.  `tasks` are sent in order
/// (wrapping around); every answer is verified against its task.
/// Throws on infrastructure errors (spawn, connect, protocol).
PhaseResult runPhase(const ServerSpec& server,
                     const std::vector<WireTask>& tasks,
                     const PhaseConfig& config, double accuracy);

}  // namespace ikbench
