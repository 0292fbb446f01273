// SimServer: the IkServer's serving semantics on simulated transport.
//
// One cooperative object standing where the epoll reactor stands in
// production: it accepts SimConnections, reassembles frames from the
// byte stream with the SAME wire codec (dadu/net/wire.hpp) the real
// server uses, applies the same validation ladder, and dispatches to
// the same IkService.  Response completions arrive as executor tasks
// (no CompletionSink/eventfd hop — the sim is single-threaded) and are
// serialized back through the connection.
//
// Validation mirrors IkServer::parseFrames/handleRequest line for
// line, so protocol behaviour proven here transfers:
//   malformed frame        -> close that connection, count it
//   wrong wire version     -> kUnsupportedVersion error, then close
//   non-request frame      -> protocol close
//   draining               -> kShuttingDown error
//   unknown spec id        -> kUnknownSpec error
//   bad content            -> kBadRequest error (non-finite target /
//                             negative deadline, pre-dispatch)
//
// Conservation contract (asserted by Scenario): every dispatched
// request completes exactly once; completed == responses_sent +
// orphaned (a completion whose connection died is orphaned, mirroring
// dadu_net_orphaned_completions).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "dadu/net/buffer.hpp"
#include "dadu/net/wire.hpp"
#include "dadu/service/ik_service.hpp"
#include "dadu/sim/sim_executor.hpp"
#include "dadu/sim/trace.hpp"
#include "dadu/sim/transport.hpp"

namespace dadu::registry {
class SpecRouter;
}

namespace dadu::sim {

struct SimServerConfig {
  /// Single-spec mode only; router mode routes by the registry.
  std::uint32_t robot_spec_id = 0;
  std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
};

struct SimServerStats {
  std::uint64_t connections = 0;
  std::uint64_t closed = 0;
  std::uint64_t frames_received = 0;
  std::uint64_t malformed_frames = 0;
  std::uint64_t shed_draining = 0;
  std::uint64_t unknown_spec = 0;
  std::uint64_t bad_requests = 0;
  std::uint64_t dispatched = 0;
  std::uint64_t completed = 0;
  std::uint64_t responses_sent = 0;
  std::uint64_t errors_sent = 0;
  std::uint64_t orphaned = 0;  ///< completions whose connection died
};

class SimServer {
 public:
  /// Single-spec mode.  `service` must run on `executor`
  /// (ServiceConfig::executor) so completions arrive cooperatively.
  /// `trace` is optional.
  SimServer(service::IkService& service, SimExecutor& executor,
            SimServerConfig config = {}, Trace* trace = nullptr);

  /// Multi-spec mode: route by wire spec_id through `router`, exactly
  /// like the production IkServer's router constructor.  Every lane
  /// service must run on `executor`; unknown spec ids answer
  /// kUnknownSpec (counted in stats().unknown_spec) and the connection
  /// survives.
  SimServer(registry::SpecRouter& router, SimExecutor& executor,
            SimServerConfig config = {}, Trace* trace = nullptr);

  /// Attach the server side of `conn` and start serving it.
  void accept(std::shared_ptr<SimConnection> conn);

  /// Refuse new dispatches with kShuttingDown (existing in-flight work
  /// still completes and flushes) — the drain phase of a shutdown.
  void beginDrain() { draining_ = true; }

  const SimServerStats& stats() const { return stats_; }

 private:
  struct ServerConn {
    std::uint64_t id = 0;
    std::shared_ptr<SimConnection> conn;
    net::ByteBuffer in;
    bool open = true;
  };

  void onBytes(const std::shared_ptr<ServerConn>& sc,
               const std::uint8_t* data, std::size_t len);
  void parseFrames(const std::shared_ptr<ServerConn>& sc);
  void handleRequest(const std::shared_ptr<ServerConn>& sc,
                     const net::WireRequest& request);
  void sendError(ServerConn& sc, std::uint64_t request_id,
                 net::WireErrorCode code, const char* message);
  void closeConn(ServerConn& sc);
  std::uint64_t nowUs() const;

  /// Exactly one of these is set (single-spec vs router mode).
  service::IkService* service_ = nullptr;
  registry::SpecRouter* router_ = nullptr;
  SimExecutor& executor_;
  SimServerConfig config_;
  Trace* trace_ = nullptr;
  bool draining_ = false;
  std::uint64_t next_conn_id_ = 1;
  SimServerStats stats_;
  std::vector<std::uint8_t> encode_scratch_;
  /// Open connections by id.  The server owns them; the transport's
  /// handlers hold them weakly, because a strong capture would close a
  /// ServerConn -> SimConnection -> handler -> ServerConn cycle and
  /// leak every connection.  Erased on close.
  std::unordered_map<std::uint64_t, std::shared_ptr<ServerConn>> conns_;
};

}  // namespace dadu::sim
