// Traced run: in-process replays of a workload's request stream that time
// the calls into each layer's public functions, plus the per-layer
// metrics derived from them, the load generator, and the server counters.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "loadgen.h"
#include "workload.h"

namespace perfbench {

/// One reported metric. `samples` is the count the value was computed
/// from (requests, spans, folds...); 1 for single readings.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
};

/// Server counters read over the wire (METRICS / STATS), as deltas over
/// the measured phases unless noted. Leader and follower are summed.
struct WireCounters {
  double served = 0, inline_served = 0, bytes_in = 0, bytes_out = 0;
  double parked_drains = 0, backpressure_stalls = 0;
  double cache_hits = 0, cache_misses = 0;
  /// Table whose folds the fold metrics describe (the written table, or
  /// the first table when nothing is written).
  std::string fold_table;
  /// Folds (applied_batches) and result-cache misses of fold_table on the
  /// server that serves its reads.
  double folds = 0, fold_table_misses = 0;
  /// Absolute applied_rankings / applied_batches of fold_table at the end.
  double applied_rankings = 0, applied_batches = 0;
  /// Leader op-log growth (STATS oplog_bytes / oplog_records).
  double oplog_bytes = 0, oplog_records = 0;
  /// Follower STATS replica_bytes_streamed growth.
  double replica_bytes = 0;
};

/// Runs the in-process replays and returns every per-layer metric of
/// BENCHMARK.json. Scratch files (op logs, the span dump) go under
/// `scratch_dir`.
std::vector<Metric> PerLayerMetrics(const Workload& wl, const LoadResult& load,
                                    const WireCounters& wire,
                                    const std::string& scratch_dir);

/// Linear-interpolated percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
