// Seeded traffic mixes for the serving benchmark.
//
// A Workload is everything a run sends: the tables and their seed
// profiles (folded during set-up), the queries warmed during set-up, and
// the pre-generated request lines of the measured phases. Every byte is a
// pure function of (workload name, seed, seconds), so two runs with the
// same arguments send identical traffic; the server only ever sees the
// generated lines.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/ranking.h"

namespace perfbench {

/// Which server process a connection talks to.
enum class Target { kLeader, kFollower };

/// What a connection is for. Probe traffic (follower STATS polling for
/// the replication lag) is instrumentation: its connection is untimed, so
/// it stays out of the per-class latencies, and the in-process replays
/// skip it.
enum class Role { kReader, kWriter, kProbe };

struct ConnSpec {
  Target target = Target::kLeader;
  Role role = Role::kReader;
  /// Open-loop rate of this connection, requests per second.
  double rate = 0.0;
  /// Whether its latency-phase responses feed the per-class latencies.
  bool timed = true;
};

struct Request {
  /// Index into Workload::conns.
  int conn = 0;
  /// Open loop: seconds after the phase starts when the request is due.
  double due = 0.0;
  std::string line;
  /// Rankings carried by an APPEND line (0 otherwise).
  int rankings = 0;
};

struct TableSpec {
  std::string name;
  int n = 0;
  /// Profile folded into the table during set-up (APPEND + FLUSH).
  std::vector<manirank::Ranking> seed;
  /// SELECT lines of this table (all warmed during set-up).
  std::vector<std::string> selects;
  /// RUN lines warmed during set-up.
  std::vector<std::string> warm_runs;
  /// EVAL line warmed during set-up (fills the A3 leg of EVAL).
  std::string warm_eval;
};

struct Workload {
  std::string name;
  std::string why;
  uint64_t seed = 0;
  int n = 0;
  /// Rankings per APPEND line of the mix.
  int batch = 0;
  std::vector<TableSpec> tables;
  /// Server process flags (beyond --port 0 / --log-dir / --follow).
  std::vector<std::string> leader_flags;
  std::vector<std::string> follower_flags;
  bool log_dir = false;
  bool follower = false;

  std::vector<ConnSpec> conns;
  /// Open-loop phase: every connection's requests, sorted by due time.
  std::vector<Request> open_loop;
  double open_seconds = 0.0;
  /// Closed-loop (throughput) phase: one cyclic line list per connection,
  /// each kept at one request in flight...
  std::vector<std::vector<Request>> closed_loop;
  Target closed_target = Target::kLeader;
  double closed_seconds = 0.0;
  /// ...while these open-loop requests (writers keeping their rate) are
  /// sent on schedule, due times relative to the phase start.
  std::vector<Request> closed_background;

  /// The table a single writer appends to in order (empty when none), and
  /// the rankings it appends, in send order: the profile at generation g
  /// is the seed followed by the first g - |seed| of these.
  std::string written_table;
  std::vector<manirank::Ranking> written_rankings;

  /// Human-readable parameters recorded in the report (rates, sizes...).
  std::vector<std::pair<std::string, std::string>> params;

  const TableSpec& Table(const std::string& table_name) const;
};

/// Builds the named workload; throws std::invalid_argument for unknown
/// names.
Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds);

/// Set-up lines of one table: CREATE, the seed profile as APPEND chunks,
/// FLUSH.
std::vector<std::string> SeedLines(const TableSpec& table);
/// Lines that fill the table's result cache during set-up.
std::vector<std::string> WarmLines(const TableSpec& table);

/// Verb (first token) of a request line.
std::string Verb(const std::string& line);
/// Table (second token) of a request line; empty when absent.
std::string TableOf(const std::string& line);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
