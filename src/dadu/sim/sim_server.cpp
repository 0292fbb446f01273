#include "dadu/sim/sim_server.hpp"

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "dadu/registry/spec_router.hpp"

namespace dadu::sim {

SimServer::SimServer(service::IkService& service, SimExecutor& executor,
                     SimServerConfig config, Trace* trace)
    : service_(&service),
      executor_(executor),
      config_(config),
      trace_(trace) {}

SimServer::SimServer(registry::SpecRouter& router, SimExecutor& executor,
                     SimServerConfig config, Trace* trace)
    : router_(&router),
      executor_(executor),
      config_(config),
      trace_(trace) {}

std::uint64_t SimServer::nowUs() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          executor_.simClock().elapsed())
          .count());
}

void SimServer::accept(std::shared_ptr<SimConnection> conn) {
  auto sc = std::make_shared<ServerConn>();
  sc->id = next_conn_id_++;
  sc->conn = std::move(conn);
  ++stats_.connections;
  conns_.emplace(sc->id, sc);
  SimServer* self = this;
  const std::weak_ptr<ServerConn> weak = sc;
  sc->conn->onReceive(Side::kServer,
                      [self, weak](const std::uint8_t* data, std::size_t len) {
                        if (const auto live = weak.lock())
                          self->onBytes(live, data, len);
                      });
  sc->conn->onClose(Side::kServer, [self, weak] {
    const auto live = weak.lock();
    if (!live || !live->open) return;
    live->open = false;
    self->conns_.erase(live->id);
    ++self->stats_.closed;
    if (self->trace_)
      self->trace_->record(self->nowUs(), "srv close conn=%llu",
                           static_cast<unsigned long long>(live->id));
  });
}

void SimServer::onBytes(const std::shared_ptr<ServerConn>& sc,
                        const std::uint8_t* data, std::size_t len) {
  if (!sc->open) return;
  sc->in.append(data, len);
  parseFrames(sc);
}

void SimServer::parseFrames(const std::shared_ptr<ServerConn>& sc) {
  // Mirror of IkServer::parseFrames: one frame at a time off the
  // stream, each verdict identical to the real reactor's.
  while (sc->open && !sc->in.empty()) {
    net::DecodedFrame frame;
    const net::DecodeStatus status = net::decodeFrame(
        sc->in.data(), sc->in.size(), config_.max_frame_bytes, frame);
    switch (status) {
      case net::DecodeStatus::kNeedMore:
        return;
      case net::DecodeStatus::kMalformed:
        ++stats_.malformed_frames;
        closeConn(*sc);
        return;
      case net::DecodeStatus::kUnsupportedVersion:
        ++stats_.malformed_frames;
        sendError(*sc, frame.request_id,
                  net::WireErrorCode::kUnsupportedVersion,
                  "server speaks wire version 1");
        sc->conn->closeAfterFlush();  // error frame lands, then hang up
        return;
      case net::DecodeStatus::kOk:
        break;
    }
    sc->in.consume(frame.consumed);
    ++stats_.frames_received;
    if (frame.type != net::MsgType::kRequest) {
      ++stats_.malformed_frames;
      closeConn(*sc);
      return;
    }
    handleRequest(sc, frame.request);
  }
}

void SimServer::handleRequest(const std::shared_ptr<ServerConn>& sc,
                              const net::WireRequest& request) {
  if (draining_) {
    ++stats_.shed_draining;
    sendError(*sc, request.id, net::WireErrorCode::kShuttingDown,
              "server is draining");
    return;
  }
  service::IkService* target = service_;
  if (router_) {
    target = router_->serviceFor(request.spec_id);
    if (!target) {
      ++stats_.unknown_spec;
      sendError(*sc, request.id, net::WireErrorCode::kUnknownSpec,
                "unknown robot spec");
      return;
    }
  } else if (request.spec_id != config_.robot_spec_id) {
    ++stats_.unknown_spec;
    sendError(*sc, request.id, net::WireErrorCode::kUnknownSpec,
              "unknown robot spec");
    return;
  }
  if (!std::isfinite(request.target[0]) || !std::isfinite(request.target[1]) ||
      !std::isfinite(request.target[2]) ||
      !std::isfinite(request.deadline_ms) || request.deadline_ms < 0.0) {
    ++stats_.bad_requests;
    sendError(*sc, request.id, net::WireErrorCode::kBadRequest,
              "non-finite target or bad deadline");
    return;
  }

  ++stats_.dispatched;
  const std::uint64_t request_id = request.id;
  std::shared_ptr<ServerConn> conn = sc;
  SimServer* self = this;
  target->submit(net::toServiceRequest(request),
                 [self, conn, request_id](service::Response response) {
                   ++self->stats_.completed;
                   if (!conn->open || !conn->conn->open()) {
                     ++self->stats_.orphaned;
                     return;
                   }
                   const net::WireResponse wire =
                       net::toWireResponse(request_id, response);
                   self->encode_scratch_.clear();
                   net::encodeResponse(wire, self->encode_scratch_);
                   if (conn->conn->send(Side::kServer,
                                        self->encode_scratch_.data(),
                                        self->encode_scratch_.size()))
                     ++self->stats_.responses_sent;
                   else
                     ++self->stats_.orphaned;
                 });
}

void SimServer::sendError(ServerConn& sc, std::uint64_t request_id,
                          net::WireErrorCode code, const char* message) {
  if (!sc.open || !sc.conn->open()) return;
  net::WireError error;
  error.id = request_id;
  error.code = code;
  error.message = message;
  encode_scratch_.clear();
  net::encodeError(error, encode_scratch_);
  if (sc.conn->send(Side::kServer, encode_scratch_.data(),
                    encode_scratch_.size()))
    ++stats_.errors_sent;
}

void SimServer::closeConn(ServerConn& sc) {
  if (!sc.open) return;
  // close() fires this side's onClose handler (as a task), which does
  // the bookkeeping; flip open here so frames already buffered stop
  // parsing immediately.
  sc.conn->close();
}

}  // namespace dadu::sim
