// Scheduling-focused tests for the multi-event-loop ServeExecutor
// (serve/executor.h): a 256-connection pipelined burst that must stay
// bit-identical to the synchronous Dispatcher, the METRICS response
// surface, the out-of-descriptors accept rejection, and the
// weighted-fair-queue guarantee that a saturated table cannot starve a
// light table's request behind its backlog.

#include "serve/executor.h"

#include <gtest/gtest.h>

#ifdef MANIRANK_SERVE_HAVE_SOCKETS

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "serve/context_manager.h"
#include "serve/protocol.h"
#include "serve_test_util.h"
#include "test_util.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;
using serve::ServeExecutor;
using serve::ServerOptions;
using testing::Client;
using testing::SyncReference;

/// Raises RLIMIT_NOFILE toward the hard limit and returns how many
/// loopback connections the burst test can afford: each costs two fds
/// (client + accepted), plus slack for gtest, listeners, and pipes.
size_t AffordableConnections(size_t wanted) {
  struct rlimit limit;
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return 64;
  rlim_t target = limit.rlim_max == RLIM_INFINITY
                      ? static_cast<rlim_t>(4096)
                      : std::min<rlim_t>(limit.rlim_max, 4096);
  if (limit.rlim_cur < target) {
    limit.rlim_cur = target;
    ::setrlimit(RLIMIT_NOFILE, &limit);
    ::getrlimit(RLIMIT_NOFILE, &limit);
  }
  const rlim_t slack = 96;
  if (limit.rlim_cur <= slack) return 8;
  const size_t affordable = static_cast<size_t>((limit.rlim_cur - slack) / 2);
  return std::min(wanted, affordable);
}

/// Each connection owns one table, so every response is deterministic
/// per connection no matter how the loops interleave the streams.
std::vector<std::string> PerConnectionWorkload(size_t index) {
  const std::string table = "burst" + std::to_string(index);
  return {
      "CREATE " + table + " CYCLIC 6 2 2",
      "APPEND " + table + " 0 1 2 3 4 5 ; 5 4 3 2 1 0",
      "RUN " + table + " A3",
      "STATS " + table,
      "REMOVE " + table + " 0",
      "FLUSH " + table,
      "STATS " + table,
      "DROP " + table,
  };
}

/// 256 concurrent pipelined connections against a sharded executor
/// (io_threads=2 exercises SO_REUSEPORT accept distribution even on one
/// core). Every connection's response stream must be bit-identical to a
/// synchronous replay of its own requests.
TEST(ServeSchedulingTest, BurstBitIdentical) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 3;
  options.io_threads = 2;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  EXPECT_EQ(server.io_loops(), 2u);

  const size_t kConnections = AffordableConnections(256);
  ASSERT_GE(kConnections, 8u);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  clients.reserve(kConnections);
  for (size_t i = 0; i < kConnections; ++i) {
    clients.emplace_back([&, i] {
      const std::vector<std::string> requests = PerConnectionWorkload(i);
      ContextManager reference_manager;
      const std::vector<std::string> expected =
          SyncReference(requests, &reference_manager);
      Client client(static_cast<int>(server.port()));
      if (!client.Send(testing::JoinRequests(requests))) {
        mismatches.fetch_add(1);
        return;
      }
      client.HalfClose();
      const std::vector<std::string> received = client.ReadLinesUntilEof();
      if (received != expected) mismatches.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0) << "of " << kConnections << " connections";

  // The per-loop accept counters must account for every connection.
  Client probe(static_cast<int>(server.port()));
  ASSERT_TRUE(probe.Send("METRICS\n"));
  const std::vector<std::string> metrics = probe.ReadLines(1);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].rfind("OK METRICS poller=", 0), 0u) << metrics[0];
  EXPECT_NE(metrics[0].find(" accepted=" +
                            std::to_string(kConnections + 1) + " "),
            std::string::npos)
      << metrics[0];
  server.Shutdown();
}

/// METRICS is only answerable by the executor front end; the synchronous
/// Dispatcher (stdin / --script replay) reports unavailable.
TEST(ServeSchedulingTest, MetricsSurface) {
  ContextManager manager;
  Dispatcher sync_dispatcher(&manager);
  EXPECT_EQ(sync_dispatcher.Handle("METRICS").rfind("ERR unavailable:", 0),
            0u);
  EXPECT_EQ(sync_dispatcher.Handle("METRICS now").rfind("ERR bad-request:", 0),
            0u);

  ServerOptions options;
  options.workers = 2;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client client(static_cast<int>(server.port()));
  ASSERT_TRUE(client.Send("STATS nosuch\nMETRICS\n"));
  const std::vector<std::string> lines = client.ReadLines(2);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("ERR no-such-table:", 0), 0u) << lines[0];
  EXPECT_EQ(lines[1].rfind("OK METRICS poller=", 0), 0u) << lines[1];
  for (const char* field :
       {" io_loops=", " workers=", " accepted=", " served=", " inline=",
        " parked_drains=", " bytes_in=", " bytes_out=",
        " backpressure_stalls=", " emfile_rejected=", " loop0="}) {
    EXPECT_NE(lines[1].find(field), std::string::npos)
        << "missing " << field << " in " << lines[1];
  }
  server.Shutdown();
}

/// Lowers the soft RLIMIT_NOFILE of this process for one scope and
/// restores the saved limit on exit (also on an early ASSERT return).
class ScopedFdLimit {
 public:
  explicit ScopedFdLimit(rlim_t soft) {
    if (::getrlimit(RLIMIT_NOFILE, &saved_) != 0) return;
    struct rlimit lowered = saved_;
    lowered.rlim_cur = soft;
    applied_ = ::setrlimit(RLIMIT_NOFILE, &lowered) == 0;
  }
  ~ScopedFdLimit() {
    if (applied_) ::setrlimit(RLIMIT_NOFILE, &saved_);
  }
  ScopedFdLimit(const ScopedFdLimit&) = delete;
  ScopedFdLimit& operator=(const ScopedFdLimit&) = delete;

  bool applied() const { return applied_; }

 private:
  struct rlimit saved_ {};
  bool applied_ = false;
};

/// Edge-triggered accept under fd exhaustion: with the soft fd limit at
/// the lowest free descriptor, the server's accept() fails with EMFILE,
/// so the loop burns its reserved emergency fd to accept, answers the
/// out-of-descriptors ERR and hangs up — the client sees a loud
/// rejection, not a connect that hangs in the backlog. Exactly one
/// connection is rejected: with the backlog empty the loop must stop
/// sweeping, not keep rejecting whatever connects next. Both sockets are
/// opened before the limit drops (connect() allocates no descriptor),
/// and the probe's round trip first lets the server's threads settle.
TEST(ServeSchedulingTest, AcceptRejectsLoudlyWhenOutOfDescriptors) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 1;
  options.io_threads = 1;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  Client probe(static_cast<int>(server.port()));
  ASSERT_TRUE(probe.Send("METRICS\n"));
  ASSERT_EQ(probe.ReadLines(1).size(), 1u);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0) << std::strerror(errno);
  timeval timeout{};
  timeout.tv_sec = 30;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));

  // dup() returns the lowest free descriptor; every lower one is taken.
  const int lowest_free = ::dup(fd);
  ASSERT_GE(lowest_free, 0) << std::strerror(errno);
  ::close(lowest_free);
  std::string received;
  {
    ScopedFdLimit limit(static_cast<rlim_t>(lowest_free));
    ASSERT_TRUE(limit.applied()) << std::strerror(errno);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << std::strerror(errno);
    char chunk[256];
    for (;;) {
      const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) break;
      received.append(chunk, static_cast<size_t>(got));
    }
  }
  ::close(fd);
  EXPECT_EQ(received, "ERR unavailable: server out of file descriptors\n");

  // A connection made after the limit is restored is served normally.
  Client late(static_cast<int>(server.port()));
  ASSERT_TRUE(late.Send("STATS nosuch\n"));
  const std::vector<std::string> late_lines = late.ReadLines(1);
  ASSERT_EQ(late_lines.size(), 1u);
  EXPECT_EQ(late_lines[0].rfind("ERR no-such-table:", 0), 0u) << late_lines[0];
  ASSERT_TRUE(probe.Send("METRICS\n"));
  const std::vector<std::string> metrics = probe.ReadLines(1);
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_NE(metrics[0].find(" emfile_rejected=1 "), std::string::npos)
      << metrics[0];
  server.Shutdown();
}

/// Turns on kernel receive timestamps for `fd` (nanosecond stamps where
/// the platform has them).
void EnableReceiveStamps(int fd) {
  const int one = 1;
#ifdef SO_TIMESTAMPNS
  ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMPNS, &one, sizeof(one));
#else
  ::setsockopt(fd, SOL_SOCKET, SO_TIMESTAMP, &one, sizeof(one));
#endif
}

/// Reads one response line straight off `fd` and returns the kernel's
/// receive timestamp of its first bytes in nanoseconds, or -1 if none
/// came with them. On loopback the stamp is taken inside the server's
/// send, so stamps from different connections order responses by when
/// the server wrote them, however the reading threads were scheduled.
int64_t ReadStampedLine(int fd, std::string* line) {
  int64_t stamp = -1;
  line->clear();
  char chunk[4096];
  while (line->empty() || line->back() != '\n') {
    alignas(cmsghdr) char control[256];
    iovec iov{chunk, sizeof(chunk)};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t got = ::recvmsg(fd, &msg, 0);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return -1;
    for (cmsghdr* c = CMSG_FIRSTHDR(&msg); c != nullptr && stamp < 0;
         c = CMSG_NXTHDR(&msg, c)) {
      if (c->cmsg_level != SOL_SOCKET) continue;
#ifdef SO_TIMESTAMPNS
      if (c->cmsg_type == SCM_TIMESTAMPNS) {
        timespec ts;
        std::memcpy(&ts, CMSG_DATA(c), sizeof(ts));
        stamp = int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
      }
#else
      if (c->cmsg_type == SCM_TIMESTAMP) {
        timeval tv;
        std::memcpy(&tv, CMSG_DATA(c), sizeof(tv));
        stamp = int64_t{tv.tv_sec} * 1000000000 + int64_t{tv.tv_usec} * 1000;
      }
#endif
    }
    line->append(chunk, static_cast<size_t>(got));
  }
  line->pop_back();
  return stamp;
}

/// Weighted fair queuing: with a single worker pinned down by a
/// long-running exact solve, eight queued RUNs against the hot table
/// must not starve a later RUN against a light table — the light lane's
/// virtual start time beats the hot lane's accumulated drain weight, so
/// the light response is written after at most a couple of hot ones.
/// Arrival-order FIFO (the old scheduler) would serve all eight hot
/// requests first. Responses are ordered by kernel receive stamps, not by
/// when the reading threads ran, so a descheduled reader cannot reorder
/// them.
TEST(ServeSchedulingTest, LightTableNotStarvedBehindHotBacklog) {
  ContextManager manager;
  ServerOptions options;
  options.workers = 1;
  options.io_threads = 1;
  ServeExecutor server(&manager, options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  {
    // "slow" is sized so the exact Fair-Kemeny solve runs into its time
    // limit: four strongly conflicting rankings over 40 candidates.
    std::vector<std::string> setup = {
        "CREATE slow CYCLIC 40 2 2",
        "CREATE hot CYCLIC 8 2 2",
        "CREATE light CYCLIC 8 2 2",
        "APPEND hot 0 1 2 3 4 5 6 7",
        "APPEND light 7 6 5 4 3 2 1 0",
    };
    std::string forward, backward, evens;
    for (int i = 0; i < 40; ++i) {
      forward += (i ? " " : "") + std::to_string(i);
      backward += (i ? " " : "") + std::to_string(39 - i);
      evens += (i ? " " : "") + std::to_string((i * 2) % 40 + (i >= 20));
    }
    setup.push_back("APPEND slow " + forward + " ; " + backward);
    setup.push_back("APPEND slow " + evens);
    Client setup_client(static_cast<int>(server.port()));
    ASSERT_TRUE(setup_client.Send(testing::JoinRequests(setup)));
    for (const std::string& line : setup_client.ReadLines(setup.size())) {
      ASSERT_EQ(line.rfind("OK ", 0), 0u) << line;
    }
  }

  // Occupy the single worker for ~1 second...
  Client blocker(static_cast<int>(server.port()));
  ASSERT_TRUE(blocker.Send("RUN slow A1 LIMIT 1.0\n"));
  std::this_thread::sleep_for(std::chrono::milliseconds(200));

  // ...queue eight hot-table RUNs from eight connections...
  std::vector<std::unique_ptr<Client>> hot_clients;
  for (int i = 0; i < 8; ++i) {
    hot_clients.push_back(
        std::make_unique<Client>(static_cast<int>(server.port())));
    EnableReceiveStamps(hot_clients.back()->fd());
    ASSERT_TRUE(hot_clients.back()->Send("RUN hot A3\n"));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  // ...then one light-table RUN, arriving last.
  Client light(static_cast<int>(server.port()));
  EnableReceiveStamps(light.fd());
  ASSERT_TRUE(light.Send("RUN light A3\n"));

  // The stamps order the responses, so reading them one by one is fine.
  std::string line;
  const int64_t light_stamp = ReadStampedLine(light.fd(), &line);
  EXPECT_EQ(line.rfind("OK RUN light", 0), 0u) << line;
  ASSERT_GE(light_stamp, 0) << "no kernel receive stamp";
  int hot_before_light = 0;
  for (const auto& hot : hot_clients) {
    const int64_t stamp = ReadStampedLine(hot->fd(), &line);
    EXPECT_EQ(line.rfind("OK RUN hot", 0), 0u) << line;
    ASSERT_GE(stamp, 0) << "no kernel receive stamp";
    if (stamp < light_stamp) ++hot_before_light;
  }
  // WFQ serves the light request right after the in-flight hot one;
  // allow generous slack, while FIFO would reach 8 here.
  EXPECT_LE(hot_before_light, 4);

  const std::vector<std::string> blocker_lines = blocker.ReadLines(1);
  ASSERT_EQ(blocker_lines.size(), 1u);
  EXPECT_EQ(blocker_lines[0].rfind("OK RUN slow", 0), 0u) << blocker_lines[0];
  server.Shutdown();
}

}  // namespace
}  // namespace manirank

#endif  // MANIRANK_SERVE_HAVE_SOCKETS
