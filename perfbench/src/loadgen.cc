#include "loadgen.h"

#include <cerrno>
#include <chrono>
#include <cmath>
#include <deque>
#include <stdexcept>
#include <string_view>

#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include "server.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Open-loop responses kept for the replay check: one in kSampleStride
/// RUN / EVAL / SELECT responses, at most kMaxSamples.
constexpr uint64_t kSampleStride = 4;
constexpr size_t kMaxSamples = 300;
/// How long a phase waits for outstanding responses after its last send.
constexpr double kDrainSeconds = 20.0;
constexpr size_t kMaxFailureNotes = 5;

/// Which part of a run a request belongs to: the open-loop latency
/// phase, the closed-loop throughput phase, or the open-loop writers that
/// keep their rate during the throughput phase.
enum class Phase { kLatency, kClosed, kBackground };

struct InFlight {
  const Request* request = nullptr;
  int latency_class = kInline;
  double due = 0.0;
  Phase phase = Phase::kLatency;
};

struct Conn {
  int fd = -1;
  Role role = Role::kReader;
  std::string out;
  size_t out_sent = 0;
  std::string in;
  std::deque<InFlight> inflight;
  /// Closed loop: the cyclic line list and the next index into it.
  const std::vector<Request>* cycle = nullptr;
  const std::vector<int>* cycle_classes = nullptr;
  size_t cursor = 0;
};

class Generator {
 public:
  Generator(const Workload& wl, int leader_port, int follower_port)
      : wl_(wl),
        leader_port_(leader_port),
        follower_port_(follower_port),
        base_(Clock::now()) {
    // Wake-ups land on the scheduled microsecond, not 50 us later.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    for (const Request& r : wl.open_loop) open_classes_.push_back(ClassOf(r.line));
    for (const Request& r : wl.closed_background) {
      background_classes_.push_back(ClassOf(r.line));
    }
    for (const std::vector<Request>& cycle : wl.closed_loop) {
      closed_classes_.emplace_back();
      for (const Request& r : cycle) closed_classes_.back().push_back(ClassOf(r.line));
    }
  }

  ~Generator() { CloseAll(); }
  Generator(const Generator&) = delete;
  Generator& operator=(const Generator&) = delete;

  LoadResult Run(const std::function<void()>& between_phases) {
    OpenLoop();
    if (between_phases) between_phases();
    if (!wl_.closed_loop.empty() && result_.missing == 0) ClosedLoop();
    return std::move(result_);
  }

 private:
  double Now() const {
    return std::chrono::duration<double>(Clock::now() - base_).count();
  }

  Conn Connect(Target target, Role role) {
    const int port = target == Target::kLeader ? leader_port_ : follower_port_;
    Conn c;
    c.fd = ConnectLoopback(port, true);
    if (c.fd < 0) throw std::runtime_error("load generator cannot connect");
    c.role = role;
    return c;
  }

  void CloseAll() {
    for (Conn& c : conns_) {
      if (c.fd >= 0) ::close(c.fd);
    }
    conns_.clear();
  }

  void Send(Conn& c, const Request& r, int latency_class, double due,
            Phase phase) {
    c.out.append(r.line).push_back('\n');
    c.inflight.push_back({&r, latency_class, due, phase});
    ++result_.attempted;
    if (phase == Phase::kLatency) result_.late_ms.push_back((Now() - due) * 1e3);
    Write(c);
  }

  void Write(Conn& c) {
    while (c.out_sent < c.out.size()) {
      const ssize_t w = ::send(c.fd, c.out.data() + c.out_sent,
                               c.out.size() - c.out_sent, MSG_NOSIGNAL);
      if (w > 0) {
        c.out_sent += static_cast<size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && errno == EAGAIN) return;
      throw std::runtime_error("load generator send failed");
    }
    c.out.clear();
    c.out_sent = 0;
  }

  size_t InFlightTotal() const {
    size_t total = 0;
    for (const Conn& c : conns_) total += c.inflight.size();
    return total;
  }

  /// Waits up to `timeout_s` for socket readiness, then writes what the
  /// sockets accept and dispatches every complete response line.
  void Poll(double timeout_s) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      fds.push_back({c.fd,
                     static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)),
                     0});
    }
    timespec ts;
    const double t = std::max(0.0, timeout_s);
    ts.tv_sec = static_cast<time_t>(t);
    ts.tv_nsec = static_cast<long>((t - std::floor(t)) * 1e9);
    const int ready = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready < 0 && errno != EINTR) throw std::runtime_error("ppoll failed");
    if (ready <= 0) return;
    for (size_t i = 0; i < fds.size(); ++i) {
      Conn& c = conns_[i];
      if (fds[i].revents & POLLOUT) Write(c);
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      char buf[1 << 16];
      for (;;) {
        const ssize_t r = ::recv(c.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          c.in.append(buf, static_cast<size_t>(r));
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && errno == EAGAIN) break;
        throw std::runtime_error("server closed a load connection");
      }
      const double arrived = Now();
      size_t start = 0;
      for (size_t nl = c.in.find('\n'); nl != std::string::npos;
           nl = c.in.find('\n', start)) {
        OnResponse(static_cast<int>(i),
                   std::string_view(c.in).substr(start, nl - start), arrived);
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
  }

  void Note(const std::string& what) {
    if (result_.failures.size() < kMaxFailureNotes) {
      result_.failures.push_back(what.substr(0, 300));
    }
  }

  void OnResponse(int conn_index, std::string_view line, double arrived) {
    Conn& c = conns_[conn_index];
    if (c.inflight.empty()) {
      ++result_.rejected;
      Note("unsolicited response: " + std::string(line));
      return;
    }
    const InFlight f = c.inflight.front();
    c.inflight.pop_front();
    const std::string response(line);
    const std::string& request = f.request->line;
    if (response.compare(0, 3, "OK ") != 0) {
      ++result_.errors;
      Note(response);
    } else {
      std::string why;
      const std::string table = TableOf(request);
      if (!WellFormed(request, response, wl_.Table(table).n, &why)) {
        ++result_.rejected;
        Note(why + ": " + response);
      } else {
        Accept(c, f, table, response, arrived);
      }
    }
    if (f.phase == Phase::kClosed && arrived < closed_end_) {
      const size_t i = c.cursor++ % c.cycle->size();
      Send(c, (*c.cycle)[i], (*c.cycle_classes)[i], arrived, Phase::kClosed);
    }
  }

  void Accept(Conn& c, const InFlight& f, const std::string& table,
              const std::string& response, double arrived) {
    const bool timed =
        f.phase == Phase::kLatency && wl_.conns[f.request->conn].timed;
    if (timed) {
      const double ms = (arrived - f.due) * 1e3;
      result_.latency_ms[f.latency_class].push_back(ms);
      Bucket(&result_.window_latency_ms[f.latency_class],
             f.due - latency_start_)
          .push_back(ms);
    }
    if (c.role == Role::kProbe) {
      const double gen = Field(response, "generation");
      result_.lag_generations_max = std::max<uint64_t>(
          result_.lag_generations_max,
          static_cast<uint64_t>(Field(response, "replica_lag_generations", 0)));
      while (!acks_.empty() && acks_.front().first <= gen) {
        result_.lag_ms.push_back((arrived - acks_.front().second) * 1e3);
        acks_.pop_front();
      }
      return;
    }
    const std::string verb = Verb(f.request->line);
    if (f.phase == Phase::kClosed) {
      ++result_.closed_ok;
      const double offset = arrived - closed_start_;
      ClosedWindow& w = Bucket(&result_.closed_windows, offset);
      if (w.ok++ == 0) w.first = offset;
      w.last = offset;
    }
    if (verb == "APPEND") result_.appended[table] += f.request->rankings;
    if (verb == "SELECT") {
      ++(response.find(" algo=ilp ") != std::string::npos
             ? result_.select_ilp
             : result_.select_greedy);
    }
    if (c.role == Role::kWriter && verb == "FLUSH" && wl_.follower &&
        Field(response, "applied", 0) > 0) {
      const double generation =
          static_cast<double>(wl_.Table(table).seed.size() +
                              result_.appended[table]);
      acks_.emplace_back(generation, arrived);
    }
    if (timed && (verb == "RUN" || verb == "EVAL" || verb == "SELECT") &&
        sampled_++ % kSampleStride == 0 &&
        result_.samples.size() < kMaxSamples) {
      result_.samples.push_back({f.request->line, response});
    }
  }

  /// Entry of `windows` for the window holding `offset` seconds into the
  /// phase.
  template <typename T>
  static T& Bucket(std::vector<T>* windows, double offset) {
    const size_t w = static_cast<size_t>(std::max(0.0, offset) / kWindowSeconds);
    if (windows->size() <= w) windows->resize(w + 1);
    return (*windows)[w];
  }

  /// Waits for outstanding responses; whatever has not arrived by the
  /// deadline counts as missing.
  void Drain() {
    const double deadline = Now() + kDrainSeconds;
    while (InFlightTotal() > 0 && Now() < deadline) Poll(deadline - Now());
    result_.missing += InFlightTotal();
  }

  void OpenLoop() {
    for (const ConnSpec& spec : wl_.conns) {
      conns_.push_back(Connect(spec.target, spec.role));
    }
    const double start = Now();
    latency_start_ = start;
    size_t next = 0;
    const std::vector<Request>& reqs = wl_.open_loop;
    while (next < reqs.size()) {
      const double now = Now();
      while (next < reqs.size() && start + reqs[next].due <= now) {
        const Request& r = reqs[next];
        Send(conns_[r.conn], r, open_classes_[next], start + r.due,
             Phase::kLatency);
        ++next;
      }
      if (next < reqs.size()) Poll(start + reqs[next].due - Now());
    }
    Drain();
    CloseAll();
  }

  void ClosedLoop() {
    for (size_t i = 0; i < wl_.closed_loop.size(); ++i) {
      Conn c = Connect(wl_.closed_target, Role::kReader);
      c.cycle = &wl_.closed_loop[i];
      c.cycle_classes = &closed_classes_[i];
      conns_.push_back(std::move(c));
    }
    // Background writers: workload connection index -> slot in conns_.
    std::map<int, size_t> slot;
    for (const Request& r : wl_.closed_background) {
      if (slot.count(r.conn) != 0) continue;
      slot[r.conn] = conns_.size();
      conns_.push_back(Connect(wl_.conns[r.conn].target, wl_.conns[r.conn].role));
    }
    const double start = Now();
    closed_start_ = start;
    closed_end_ = start + wl_.closed_seconds;
    for (size_t i = 0; i < wl_.closed_loop.size(); ++i) {
      Conn& c = conns_[i];
      c.cursor = 1;
      Send(c, (*c.cycle)[0], (*c.cycle_classes)[0], start, Phase::kClosed);
    }
    size_t next = 0;
    const std::vector<Request>& bg = wl_.closed_background;
    while (Now() < closed_end_) {
      const double now = Now();
      while (next < bg.size() && start + bg[next].due <= now) {
        Send(conns_[slot[bg[next].conn]], bg[next], background_classes_[next],
             start + bg[next].due, Phase::kBackground);
        ++next;
      }
      const double wake = next < bg.size()
                              ? std::min(start + bg[next].due, closed_end_)
                              : closed_end_;
      Poll(wake - Now());
    }
    Drain();
    // Only whole windows count towards the throughput.
    result_.closed_windows.resize(
        static_cast<size_t>(wl_.closed_seconds / kWindowSeconds));
    CloseAll();
  }

  const Workload& wl_;
  const int leader_port_;
  const int follower_port_;
  const Clock::time_point base_;
  std::vector<int> open_classes_;
  std::vector<int> background_classes_;
  std::vector<std::vector<int>> closed_classes_;
  std::vector<Conn> conns_;
  /// Leader FLUSH acks awaiting the follower: (generation, ack time).
  std::deque<std::pair<double, double>> acks_;
  double latency_start_ = 0.0;
  double closed_start_ = 0.0;
  double closed_end_ = 0.0;
  uint64_t sampled_ = 0;
  LoadResult result_;
};

}  // namespace

int ClassOf(const std::string& line) {
  const manirank::serve::RequestClass c =
      manirank::serve::ClassifyRequest(line);
  if (c.draining) return kDraining;
  if (c.compute) return kCompute;
  return kInline;
}

const char* ClassName(int latency_class) {
  switch (latency_class) {
    case kInline:
      return "inline";
    case kCompute:
      return "compute";
    default:
      return "draining";
  }
}

LoadResult RunLoad(const Workload& wl, int leader_port, int follower_port,
                   const std::function<void()>& between_phases) {
  Generator generator(wl, leader_port, follower_port);
  return generator.Run(between_phases);
}

}  // namespace perfbench
