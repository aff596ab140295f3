// Correctness checks for the responses the load generator collects.
#ifndef PERFBENCH_CHECKER_H_
#define PERFBENCH_CHECKER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

/// Structural check of one OK response against its request: the verb and
/// table echo, the fields each verb promises, RUN consensus a permutation
/// of 0..n-1, SELECT slate of k distinct candidates. On failure returns
/// false with a reason in *why.
bool WellFormed(const std::string& request, const std::string& response,
                int n, std::string* why);

/// A response kept for the byte-equality replay.
struct Sample {
  std::string request;
  std::string response;
};

struct ReplayReport {
  size_t checked = 0;
  size_t mismatched = 0;
  /// First few mismatches, for the report.
  std::vector<std::string> details;
};

/// Replays every sample in-process through a Dispatcher over a manager
/// holding the profile at the response's gen= (the seed, then the written
/// table's rankings in send order), and compares bytes. Followers are
/// checked the same way: at equal generation they must answer exactly
/// what the leader's state answers.
ReplayReport ReplayCheck(const Workload& wl, std::vector<Sample> samples);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKER_H_
