// Event-driven load generator: one thread, one poll loop, every
// connection of the workload nonblocking on loopback.
#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "checker.h"
#include "workload.h"

namespace perfbench {

/// Length of the windows the measured phases are cut into for the
/// reported medians.
constexpr double kWindowSeconds = 1.0;

/// The server's own request classes (serve::ClassifyRequest).
enum LatencyClass { kInline = 0, kCompute = 1, kDraining = 2, kClasses = 3 };
const char* ClassName(int latency_class);
/// Class of a request line.
int ClassOf(const std::string& line);

/// Closed-loop OK responses of one window and when the first and last of
/// them arrived (seconds into the phase).
struct ClosedWindow {
  uint64_t ok = 0;
  double first = 0.0;
  double last = 0.0;
  /// Responses per second between the first and the last response.
  double Rate() const { return ok > 1 ? (ok - 1) / (last - first) : 0.0; }
};

struct LoadResult {
  /// Open-loop latency per class in ms, timed from each request's due
  /// send time to the arrival of its response (timed connections only).
  std::vector<double> latency_ms[kClasses];
  /// The same latencies by kWindowSeconds window of due time, and the
  /// closed-loop OK responses per whole window of arrival time. Reported
  /// figures are medians over windows, so a burst of interference from
  /// outside the benchmark moves a few windows rather than the result.
  std::vector<std::vector<double>> window_latency_ms[kClasses];
  std::vector<ClosedWindow> closed_windows;
  /// How far behind schedule each open-loop request was sent, ms.
  std::vector<double> late_ms;
  uint64_t closed_ok = 0;

  uint64_t attempted = 0;
  uint64_t errors = 0;    ///< ERR responses
  uint64_t missing = 0;   ///< no response by the drain deadline
  uint64_t rejected = 0;  ///< OK responses the structural checker refused
  std::vector<std::string> failures;  ///< first few, for the report

  /// Open-loop RUN / EVAL / SELECT responses kept for the replay check.
  std::vector<Sample> samples;
  /// Leader FLUSH ack -> follower STATS generation reaching it, ms.
  std::vector<double> lag_ms;
  uint64_t lag_generations_max = 0;
  uint64_t select_ilp = 0;
  uint64_t select_greedy = 0;
  /// Rankings in OK APPEND responses, per table.
  std::map<std::string, uint64_t> appended;
};

/// Runs the workload's open-loop phase, then `between_phases` (if set),
/// then its closed-loop phase (if any). Connections go to `leader_port` or
/// `follower_port` by target. Throws std::runtime_error when a connection
/// cannot be made.
LoadResult RunLoad(const Workload& wl, int leader_port, int follower_port,
                   const std::function<void()>& between_phases = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
