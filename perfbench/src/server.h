// Server processes under test and a blocking line client for set-up.
#ifndef PERFBENCH_SERVER_H_
#define PERFBENCH_SERVER_H_

#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// One forked manirank_serve listening on an ephemeral loopback port.
/// Its stderr goes to a file (so the child can never block on a pipe);
/// the "listening on port N" line is read from there. The destructor
/// stops the process (SIGTERM, then SIGKILL after a grace period) and
/// reaps it.
class ServerProcess {
 public:
  /// Runs the server on `cpus` (all allowed CPUs when empty). Throws
  /// std::runtime_error when the server does not come up.
  ServerProcess(const std::string& binary, std::vector<std::string> args,
                const std::string& stderr_path, const std::vector<int>& cpus);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  /// Peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const;
  /// CPU time the process (all its threads) has run so far, in seconds.
  /// Time the hypervisor steals is not counted. Throws std::runtime_error
  /// when the clock cannot be read.
  double CpuSeconds() const;
  /// Graceful stop; idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
};

/// Blocking loopback client: pipelines request lines and collects one
/// response line per request.
class LineClient {
 public:
  /// Throws std::runtime_error when the connection fails.
  explicit LineClient(int port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends every line (pipelined) and returns the responses in order.
  /// Throws std::runtime_error on I/O failure or after `timeout_s`.
  std::vector<std::string> Pipeline(const std::vector<std::string>& lines,
                                    double timeout_s = 60.0);
  std::string Call(const std::string& line) { return Pipeline({line})[0]; }

 private:
  int fd_ = -1;
  std::string pending_;
};

/// Pins the calling process to the last CPU it may run on and returns the
/// other allowed CPUs, for the servers — so the load generator never
/// shares a core with the system under test. Returns an empty list (and
/// pins nothing) with fewer than two CPUs.
std::vector<int> ReserveLastCpu();

/// Connects a nonblocking TCP socket to 127.0.0.1:port with TCP_NODELAY;
/// returns -1 on failure.
int ConnectLoopback(int port, bool nonblocking);

/// Text of " <key>=<value>" in a response line, up to the next space;
/// false when absent.
bool FieldText(std::string_view response, std::string_view key,
               std::string_view* value);
/// The same value as a number; `fallback` when absent.
double Field(const std::string& response, const std::string& key,
             double fallback = -1.0);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_H_
