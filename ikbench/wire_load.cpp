#include "wire_load.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dadu/solvers/types.hpp"

extern char** environ;

namespace ikbench {

namespace {

using dadu::net::DecodedFrame;
using dadu::net::DecodeStatus;
using dadu::net::MsgType;

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void throwErrno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Wait up to `timeout_ns` for `fd` to become readable.  Spins, like
/// the generator: a thread that sleeps in the kernel can wake
/// milliseconds late here, which would be charged to set-up time.
bool waitReadable(int fd, std::int64_t timeout_ns) {
  const std::int64_t deadline = nowNs() + timeout_ns;
  for (;;) {
    pollfd p{fd, POLLIN, 0};
    const int n = ::poll(&p, 1, 0);
    if (n > 0) return true;
    if (n < 0 && errno != EINTR) throwErrno("poll");
    if (nowNs() >= deadline) return false;
    sched_yield();
  }
}

constexpr std::int64_t kSecond = 1'000'000'000;
/// Longest the benchmark waits on the server for anything: start-up,
/// one reply, a drain, or the shutdown dump.
constexpr std::int64_t kServerTimeoutNs = 60 * kSecond;
/// Closed-loop phases reserve room for this many replies per second.
constexpr double kClosedLoopReserveRps = 50'000;

}  // namespace

// ---------------------------------------------------------------------------
// ServeProcess

ServeProcess::ServeProcess(const ServerSpec& spec) {
  std::vector<std::string> args = {spec.dadu_path, "serve"};
  for (const std::string& robot : spec.robots) {
    args.push_back("--robot");
    args.push_back(robot);
  }
  args.insert(args.end(), {"--workers", std::to_string(spec.workers), "--port",
                           "0", "--stats-format", "json"});
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) throwErrno("pipe2");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  const int rc = posix_spawn(&pid_, spec.dadu_path.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  out_fd_ = fds[0];
  if (rc != 0) {
    pid_ = -1;
    close(out_fd_);
    errno = rc;
    throwErrno("spawn " + spec.dadu_path);
  }

  // Read the banner up to "listening on <addr>:<port>\n".
  const std::int64_t deadline = nowNs() + kServerTimeoutNs;
  const std::string marker = "listening on ";
  try {
    for (;;) {
      const std::size_t at = output_.find(marker);
      const std::size_t eol =
          at == std::string::npos ? at : output_.find('\n', at);
      if (eol != std::string::npos) {
        const std::size_t colon = output_.rfind(':', eol);
        port_ = static_cast<std::uint16_t>(
            std::stoi(output_.substr(colon + 1, eol - colon - 1)));
        break;
      }
      const std::int64_t left = deadline - nowNs();
      if (left <= 0 || !waitReadable(out_fd_, left))
        throw std::runtime_error("dadu serve did not start listening");
      char buf[4096];
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0)
        throw std::runtime_error("dadu serve exited during start-up: " +
                                 output_);
      output_.append(buf, static_cast<std::size_t>(n));
    }
  } catch (...) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
    close(out_fd_);
    throw;
  }
}

ServeProcess::~ServeProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

ServeStats ServeProcess::stop() {
  if (kill(pid_, SIGTERM) != 0) throwErrno("kill dadu serve");
  const std::int64_t deadline = nowNs() + kServerTimeoutNs;
  for (;;) {
    const std::int64_t left = deadline - nowNs();
    if (left <= 0 || !waitReadable(out_fd_, left))
      throw std::runtime_error("dadu serve did not finish its stats dump");
    char buf[8192];
    const ssize_t n = read(out_fd_, buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) throwErrno("read dadu serve output");
    if (n == 0) break;
    output_.append(buf, static_cast<std::size_t>(n));
  }
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0)
    if (errno != EINTR) throwErrno("waitpid dadu serve");
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw std::runtime_error("dadu serve exited abnormally (status " +
                             std::to_string(status) + ")");
  return parseServeStats(output_);
}

// ---------------------------------------------------------------------------
// The single-threaded generator

namespace {

struct Conn {
  int fd = -1;
  std::vector<std::uint8_t> out;
  std::size_t out_off = 0;
  std::vector<std::uint8_t> in;
  std::size_t in_len = 0;
};

int connectLoopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throwErrno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throwErrno("connect");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

class Generator {
 public:
  Generator(const std::vector<WireTask>& tasks, const PhaseConfig& config,
            PhaseResult& result)
      : tasks_(tasks), config_(config), result_(result) {}

  ~Generator() {
    for (Conn& c : conns_)
      if (c.fd >= 0) close(c.fd);
  }

  void connectAll(std::uint16_t port) {
    conns_.resize(kConnections);
    for (Conn& c : conns_) c.fd = connectLoopback(port);
  }

  /// Queue the next task on connection `c`, due at `due` (absolute ns;
  /// 0 = now).  The next poll() writes it, together with any other
  /// request queued in the same pass.
  void send(std::size_t c, std::uint8_t part, std::int64_t due) {
    const std::size_t seq = result_.records.size();
    const std::size_t task =
        part == 0 ? config_.probe_task
                  : (config_.first_task + seq) % tasks_.size();
    RequestRecord& rec = result_.records.emplace_back();
    rec.task = static_cast<std::uint32_t>(task);
    rec.spec = tasks_[task].request.spec_id;
    rec.part = part;
    scratch_ = tasks_[task].request;
    scratch_.id = seq + 1;
    Conn& conn = conns_[c];
    if (config_.trace) {
      const std::int64_t t = nowNs();
      dadu::net::encodeRequest(scratch_, conn.out);
      rec.send_ns = nowNs();
      rec.encode_ns = rec.send_ns - t;
    } else {
      dadu::net::encodeRequest(scratch_, conn.out);
      rec.send_ns = nowNs();
    }
    rec.due_ns = due == 0 ? rec.send_ns : due;
    conn_of_.push_back(static_cast<std::uint8_t>(c));
    ++outstanding_;
    result_.max_outstanding = std::max(result_.max_outstanding, outstanding_);
  }

  /// Handle whatever socket events are ready, without blocking.  The
  /// generator spins on this rather than sleeping in the kernel: on a
  /// virtual machine a sleeping thread can wake milliseconds late,
  /// which would delay sends and reply timestamps, not the server.
  void poll() {
    for (Conn& c : conns_) flush(c);
    pollfds_.resize(conns_.size());
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      pollfds_[i].fd = conns_[i].fd;
      pollfds_[i].events = static_cast<short>(
          POLLIN | (conns_[i].out_off < conns_[i].out.size() ? POLLOUT : 0));
      pollfds_[i].revents = 0;
    }
    const int n = ::poll(pollfds_.data(), pollfds_.size(), 0);
    if (n < 0) {
      if (errno == EINTR) return;
      throwErrno("poll");
    }
    // Nothing ready: let a server thread queued on this CPU run.
    if (n == 0) sched_yield();
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      const short ev = pollfds_[i].revents;
      if (ev & POLLOUT) flush(conns_[i]);
      if (ev & (POLLIN | POLLHUP | POLLERR)) readFrom(i);
    }
  }

  std::size_t outstanding() const { return outstanding_; }
  bool answered(std::size_t seq) const {
    return result_.records[seq].answered;
  }
  const std::vector<double>& thetas() const { return thetas_; }

  /// Size the per-request storage for `requests`, so the timed loop
  /// does not reallocate (and page-fault) as it grows.
  void reserve(std::size_t requests, std::size_t dof) {
    result_.records.reserve(requests);
    conn_of_.reserve(requests);
    thetas_.reserve(requests * dof);
  }

  /// Called with the connection index after each reply.
  void setOnReply(void (*fn)(Generator&, std::size_t, void*), void* ctx) {
    on_reply_ = fn;
    on_reply_ctx_ = ctx;
  }

 private:
  void flush(Conn& conn) {
    while (conn.out_off < conn.out.size()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data() + conn.out_off,
                 conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n > 0) {
        conn.out_off += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        throwErrno("send to dadu serve");
      }
    }
    conn.out.clear();
    conn.out_off = 0;
  }

  void readFrom(std::size_t c) {
    Conn& conn = conns_[c];
    for (;;) {
      if (conn.in.size() < conn.in_len + 65536)
        conn.in.resize(conn.in_len + 65536);
      const ssize_t n = recv(conn.fd, conn.in.data() + conn.in_len,
                             conn.in.size() - conn.in_len, MSG_DONTWAIT);
      if (n > 0) {
        conn.in_len += static_cast<std::size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n == 0) throw std::runtime_error("dadu serve closed a connection");
      throwErrno("recv from dadu serve");
    }
    std::size_t off = 0;
    for (;;) {
      const std::int64_t t = config_.trace ? nowNs() : 0;
      const DecodeStatus st =
          dadu::net::decodeFrame(conn.in.data() + off, conn.in_len - off,
                                 dadu::net::kDefaultMaxFrameBytes, frame_);
      if (st == DecodeStatus::kNeedMore) break;
      if (st != DecodeStatus::kOk)
        throw std::runtime_error("undecodable frame from dadu serve");
      const std::int64_t decoded = config_.trace ? nowNs() - t : 0;
      off += frame_.consumed;
      onFrame(c, decoded);
    }
    std::memmove(conn.in.data(), conn.in.data() + off, conn.in_len - off);
    conn.in_len -= off;
  }

  void onFrame(std::size_t c, std::int64_t decode_ns) {
    const std::uint64_t id = frame_.type == MsgType::kError
                                 ? frame_.error.id
                                 : frame_.response.id;
    const std::size_t seq = static_cast<std::size_t>(id - 1);
    if (id == 0 || seq >= result_.records.size() ||
        result_.records[seq].answered || conn_of_[seq] != c) {
      ++result_.stray_replies;
      fail("reply with unknown, duplicate or misrouted id " +
           std::to_string(id));
      return;
    }
    RequestRecord& rec = result_.records[seq];
    rec.answered = true;
    rec.reply_ns = nowNs();
    rec.decode_ns = decode_ns;
    --outstanding_;
    if (frame_.type == MsgType::kError) {
      rec.ok = false;
      fail("wire error " + dadu::net::toString(frame_.error.code) + ": " +
           frame_.error.message);
    } else {
      const dadu::net::WireResponse& r = frame_.response;
      rec.queue_ms = r.queue_ms;
      rec.solve_ms = r.solve_ms;
      rec.iterations = r.iterations;
      rec.error = r.error;
      rec.from_cache = r.seeded_from_cache;
      // Verification after the phase decides the rest.
      rec.ok = r.status == static_cast<std::uint8_t>(
                                dadu::service::ResponseStatus::kSolved) &&
               r.solver_status ==
                   static_cast<std::uint8_t>(dadu::ik::Status::kConverged);
      if (!rec.ok)
        fail("request " + std::to_string(id) + " not solved (service status " +
             std::to_string(r.status) + ", reject " +
             std::to_string(r.reject_reason) + ", solver status " +
             std::to_string(r.solver_status) + ")");
      rec.theta_off = thetas_.size();
      rec.theta_len = static_cast<std::uint32_t>(r.theta.size());
      thetas_.insert(thetas_.end(), r.theta.begin(), r.theta.end());
    }
    if (on_reply_) on_reply_(*this, c, on_reply_ctx_);
  }

 public:
  void fail(const std::string& why) {
    if (result_.failures.size() < 8) result_.failures.push_back(why);
  }

 private:
  const std::vector<WireTask>& tasks_;
  const PhaseConfig& config_;
  PhaseResult& result_;
  std::vector<Conn> conns_;
  std::vector<pollfd> pollfds_;
  std::vector<std::uint8_t> conn_of_;
  std::vector<double> thetas_;  ///< every answer's joint angles, flat
  dadu::net::WireRequest scratch_;
  DecodedFrame frame_;
  std::size_t outstanding_ = 0;
  void (*on_reply_)(Generator&, std::size_t, void*) = nullptr;
  void* on_reply_ctx_ = nullptr;
};

/// Closed-loop refill: after each reply, send the next request on the
/// same connection while `remaining` allows and the clock is before
/// `end_ns`.
struct ClosedLoop {
  std::uint8_t part = 1;
  std::int64_t end_ns = 0;  ///< 0 = no time limit
  std::int64_t remaining = 0;

  static void onReply(Generator& gen, std::size_t c, void* self) {
    auto& loop = *static_cast<ClosedLoop*>(self);
    if (loop.remaining <= 0) return;
    if (loop.end_ns != 0 && nowNs() >= loop.end_ns) return;
    --loop.remaining;
    gen.send(c, loop.part, 0);
  }
};

/// Pump until nothing is outstanding; a server that stops answering
/// leaves the rest unanswered (reported as failures by the caller).
void drain(Generator& gen) {
  const std::int64_t deadline = nowNs() + kServerTimeoutNs;
  while (gen.outstanding() > 0 && nowNs() < deadline) gen.poll();
  if (gen.outstanding() > 0) gen.fail("replies still missing after drain");
}

}  // namespace

std::vector<const RequestRecord*> PhaseResult::measured() const {
  std::vector<const RequestRecord*> out;
  out.reserve(records.size());
  for (const RequestRecord& r : records)
    if (r.part == 2) out.push_back(&r);
  return out;
}

PhaseResult runPhase(const ServerSpec& server,
                     const std::vector<WireTask>& tasks,
                     const PhaseConfig& config, double accuracy) {
  if (tasks.empty()) throw std::invalid_argument("no tasks");

  PhaseResult result;
  const std::vector<std::int64_t> schedule =
      config.open_loop
          ? poissonSchedule(
                config.rate,
                std::max(minSamplesFor(99.0),
                         static_cast<std::size_t>(config.rate * config.seconds)),
                config.schedule_seed)
          : std::vector<std::int64_t>{};
  const std::int64_t spawned = nowNs();
  ServeProcess process(server);
  Generator gen(tasks, config, result);
  gen.reserve(1 + kWarmupRequests +
                  (config.open_loop ? schedule.size()
                                    : static_cast<std::size_t>(
                                          config.seconds * kClosedLoopReserveRps)),
              tasks.front().request.seed.size());
  gen.connectAll(process.port());

  // Set-up probe: one request, spawn -> first reply.
  gen.send(0, 0, 0);
  const std::int64_t setup_deadline = nowNs() + kServerTimeoutNs;
  while (!gen.answered(0) && nowNs() < setup_deadline) gen.poll();
  if (!gen.answered(0)) throw std::runtime_error("no first reply");
  result.setup_s = static_cast<double>(nowNs() - spawned) * 1e-9;

  const auto conns = static_cast<std::size_t>(kConnections);

  // Warm-up: a short closed loop, untimed.
  ClosedLoop warm{1, 0, kWarmupRequests};
  gen.setOnReply(&ClosedLoop::onReply, &warm);
  for (std::size_t c = 0; c < conns; ++c)
    for (int w = 0; w < kWindow && warm.remaining > 0; ++w) {
      --warm.remaining;
      gen.send(c, 1, 0);
    }
  drain(gen);
  gen.setOnReply(nullptr, nullptr);

  const std::int64_t start = nowNs();
  const std::int64_t span = static_cast<std::int64_t>(config.seconds * 1e9);
  if (!config.open_loop) {
    ClosedLoop loop{2, start + span, INT64_MAX};
    gen.setOnReply(&ClosedLoop::onReply, &loop);
    for (std::size_t c = 0; c < conns; ++c)
      for (int w = 0; w < kWindow; ++w) gen.send(c, 2, 0);
    while (nowNs() < start + span) gen.poll();
    drain(gen);
    gen.setOnReply(nullptr, nullptr);
  } else {
    std::size_t next = 0;
    // Requests due before a hold at the backlog cap ended are late
    // because of the server, not the generator: no lag sample for them.
    std::int64_t held_until = INT64_MIN;
    bool holding = false;
    result.gen_lag_ms.reserve(schedule.size());
    while (next < schedule.size()) {
      std::int64_t now = nowNs();
      while (next < schedule.size() && start + schedule[next] <= now) {
        if (gen.outstanding() >= kBacklogCap) {
          result.backlog_exceeded = true;
          holding = true;
          break;
        }
        if (holding) {
          held_until = now;
          holding = false;
        }
        const std::int64_t due = start + schedule[next];
        gen.send(next % conns, 2, due);
        now = result.records.back().send_ns;
        if (due > held_until)
          result.gen_lag_ms.push_back(static_cast<double>(now - due) * 1e-6);
        ++next;
      }
      gen.poll();
    }
    drain(gen);
  }
  result.window_s =
      static_cast<double>(config.open_loop ? schedule.back() : span) * 1e-9;

  // Rebase times on the measured window's start.
  for (RequestRecord& r : result.records) {
    r.due_ns -= start;
    r.send_ns -= start;
    r.reply_ns -= start;
  }

  result.server = process.stop();

  // Verify every answer off the timed path.
  const std::vector<double>& thetas = gen.thetas();
  for (std::size_t seq = 0; seq < result.records.size(); ++seq) {
    RequestRecord& rec = result.records[seq];
    if (!rec.answered) {
      rec.ok = false;
      continue;
    }
    if (!rec.ok) continue;
    const WireTask& task = tasks[rec.task];
    const auto& t = task.request.target;
    const Verdict v = verifyAnswer(*task.chain, {t[0], t[1], t[2]},
                                   thetas.data() + rec.theta_off, rec.theta_len,
                                   rec.error, accuracy);
    if (!v.ok) {
      rec.ok = false;
      gen.fail("request " + std::to_string(seq + 1) + ": " + v.why);
    }
  }

  // Reply accounting against the server's own books.
  const auto sent = static_cast<double>(result.records.size());
  result.books_balance =
      result.server.at("dadu_net_frames_received") == sent &&
      result.server.at("dadu_net_responses_sent") +
              result.server.at("dadu_net_errors_sent") ==
          sent;
  if (!result.books_balance)
    gen.fail("server frame counters disagree with the " +
             std::to_string(result.records.size()) + " requests sent");

  result.attempted = result.records.size();
  result.failed = result.stray_replies;
  for (const RequestRecord& r : result.records)
    if (!r.ok) ++result.failed;
  return result;
}

}  // namespace ikbench
