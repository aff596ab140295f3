#include "workload.h"

#include <algorithm>
#include <cmath>
#include <random>
#include <sstream>
#include <stdexcept>

#include "core/candidate_table.h"
#include "core/context.h"
#include "data/synthetic.h"
#include "mallows/mallows.h"

namespace perfbench {
namespace {

using manirank::CandidateTable;
using manirank::Ranking;

/// Domains of the CYCLIC tables: 4 x 3 = 12 intersectional groups.
constexpr int kD0 = 4;
constexpr int kD1 = 3;
constexpr double kTheta = 0.05;

/// SplitMix64 finaliser over (seed, stream, index): independent streams
/// per table and purpose from one benchmark seed.
uint64_t Mix(uint64_t seed, uint64_t stream, uint64_t index = 0) {
  uint64_t z = seed ^ (stream * 0x9e3779b97f4a7c15ULL) ^
               (index * 0xbf58476d1ce4e5b9ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Modal ranking that sorts group 0 of both attributes first: candidates
/// in group 0 of both, then of one, then of neither (ties by id). Mallows
/// draws around it are MANI-Rank-unfair, so A3's Make-MR-Fair repair has
/// real work to do.
Ranking BiasedModal(int n) {
  std::vector<manirank::CandidateId> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  const auto disfavour = [](int c) {
    return (c % kD0 != 0 ? 1 : 0) + ((c / kD0) % kD1 != 0 ? 1 : 0);
  };
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return disfavour(a) < disfavour(b);
  });
  return Ranking(std::move(order));
}

std::vector<Ranking> Draw(int n, size_t count, uint64_t seed) {
  return manirank::MallowsModel(BiasedModal(n), kTheta).SampleMany(count, seed);
}

void AppendIds(std::ostringstream* os, const Ranking& r) {
  for (int i = 0; i < r.size(); ++i) *os << ' ' << r.At(i);
}

std::string AppendLine(const std::string& table,
                       const std::vector<Ranking>& rankings, size_t begin,
                       size_t count) {
  std::ostringstream os;
  os << "APPEND " << table;
  for (size_t i = begin; i < begin + count; ++i) {
    if (i != begin) os << " ;";
    AppendIds(&os, rankings[i]);
  }
  return os.str();
}

std::string EvalLine(const std::string& table, const Ranking& r) {
  std::ostringstream os;
  os << "EVAL " << table;
  AppendIds(&os, r);
  return os.str();
}

/// Sixteen greedy-certified SELECT queries: k from 10 to 80, each asking
/// a disfavoured group of one grouping (an attribute, or the
/// intersection) for more than its proportional share of the slate.
std::vector<std::string> GreedySelects(const std::string& table) {
  std::vector<std::string> lines;
  for (int j = 0; j < 16; ++j) {
    const int k = 10 + 10 * (j % 8);
    std::ostringstream os;
    os << "SELECT " << table << ' ' << k;
    if (j < 8) {
      const int a = j % 2;
      const int d = a == 0 ? kD0 : kD1;
      const int g = 1 + (j / 2) % (d - 1);
      os << " ATTR " << a << ' ' << g << ' ' << k / d + 1 << ' ' << k;
    } else {
      const int g = 1 + j % (kD0 * kD1 - 1);
      os << " INTER " << g << ' ' << k / (kD0 * kD1) + 1 << ' ' << k;
    }
    lines.push_back(os.str());
  }
  return lines;
}

/// A SELECT the greedy repair provably cannot certify on `consensus`, so
/// it takes the branch & bound path: k = 2 with exactly one candidate of
/// attribute-0 group a, one of attribute-1 group b and one of their
/// intersection, where a is the top candidate's attribute-0 group and b is
/// not its attribute-1 group. Greedy takes the top candidate first (it
/// meets the attribute-0 minimum), which caps group a and blocks every
/// member of the intersection. The ILP's slate, one member of the
/// intersection plus one candidate outside both groups, always exists.
std::string IlpSelect(const std::string& table, int n,
                      const Ranking& consensus) {
  const int top = consensus.At(0);
  const int a = top % kD0;
  const int b = ((top / kD0) % kD1 + 1) % kD1;
  const CandidateTable cyclic = manirank::MakeCyclicTable(n, kD0, kD1);
  const int inter = cyclic.intersection_grouping().group_of[a + kD0 * b];
  std::ostringstream os;
  os << "SELECT " << table << " 2 ATTR 0 " << a << " 1 1 ATTR 1 " << b
     << " 1 1 INTER " << inter << " 1 1 LIMIT 30";
  return os.str();
}

TableSpec MakeTable(const std::string& name, int n, size_t seed_rankings,
                    uint64_t seed, uint64_t stream) {
  TableSpec t;
  t.name = name;
  t.n = n;
  t.seed = Draw(n, seed_rankings, Mix(seed, stream, 1));
  t.selects = GreedySelects(name);
  t.warm_eval = EvalLine(name, Draw(n, 1, Mix(seed, stream, 2))[0]);
  return t;
}

/// Open-loop schedule of one connection: `count` requests at a fixed
/// rate, phase-shifted by `offset` of an interval so connections do not
/// fire in lockstep. `line_for(i)` yields the i-th request.
template <typename LineFor>
void Schedule(Workload* wl, int conn, double seconds, double offset,
              LineFor line_for) {
  const double rate = wl->conns[conn].rate;
  const size_t count = static_cast<size_t>(std::floor(seconds * rate));
  for (size_t i = 0; i < count; ++i) {
    Request r = line_for(i);
    r.conn = conn;
    r.due = (static_cast<double>(i) + offset) / rate;
    wl->open_loop.push_back(std::move(r));
  }
}

Request Line(std::string line, int rankings = 0) {
  Request r;
  r.line = std::move(line);
  r.rankings = rankings;
  return r;
}

std::string Fmt(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Share of --seconds given to the open-loop latency phase; the rest is
/// the closed-loop throughput phase.
constexpr double kLatencyShare = 2.0 / 3.0;

/// Moves `conn`'s requests due after the latency phase into the
/// throughput phase's background schedule (writers keep their rate).
void SplitAtThroughputPhase(Workload* wl, int conn) {
  std::vector<Request> keep;
  for (Request& r : wl->open_loop) {
    if (r.conn == conn && r.due >= wl->open_seconds) {
      r.due -= wl->open_seconds;
      wl->closed_background.push_back(std::move(r));
    } else {
      keep.push_back(std::move(r));
    }
  }
  wl->open_loop = std::move(keep);
}

void SetPhases(Workload* wl, double seconds) {
  wl->open_seconds = kLatencyShare * seconds;
  wl->closed_seconds = seconds - wl->open_seconds;
}

// --- hot_read ---------------------------------------------------------------

Workload HotRead(uint64_t seed, double seconds) {
  Workload wl;
  wl.why =
      "4 warm n=1000 tables whose profile never changes: every consensus is "
      "a cache hit, so parse, scheduling, cache lookup and formatting "
      "dominate";
  wl.n = 1000;
  const int tables = 4;
  const size_t profile = 1000;
  const size_t eval_pool = 128;
  const double rate_per_conn = 500.0;
  const int conns = 4;
  for (int t = 0; t < tables; ++t) {
    TableSpec spec = MakeTable("t" + std::to_string(t), wl.n, profile, seed, t);
    spec.warm_runs = {"RUN " + spec.name + " A3", "RUN " + spec.name + " A4"};
    wl.tables.push_back(std::move(spec));
  }
  std::vector<std::vector<std::string>> evals(tables);
  for (int t = 0; t < tables; ++t) {
    for (const Ranking& r : Draw(wl.n, eval_pool, Mix(seed, 100 + t))) {
      evals[t].push_back(EvalLine(wl.tables[t].name, r));
    }
  }
  wl.leader_flags = {"--io-threads", "1", "--workers", "2"};
  // Mix: RUN A3/A4 35%, SELECT 35%, EVAL 20%, STATS 10%.
  std::mt19937_64 rng(Mix(seed, 200));
  const auto next = [&]() {
    const int t = static_cast<int>(rng() % tables);
    const TableSpec& spec = wl.tables[t];
    const int roll = static_cast<int>(rng() % 100);
    if (roll < 35) return Line(spec.warm_runs[rng() % 2]);
    if (roll < 70) return Line(spec.selects[rng() % spec.selects.size()]);
    if (roll < 90) return Line(evals[t][rng() % evals[t].size()]);
    return Line("STATS " + spec.name);
  };
  SetPhases(&wl, seconds);
  for (int c = 0; c < conns; ++c) {
    wl.conns.push_back({Target::kLeader, Role::kReader, rate_per_conn});
  }
  for (int c = 0; c < conns; ++c) {
    Schedule(&wl, c, wl.open_seconds, static_cast<double>(c) / conns,
             [&](size_t) { return next(); });
  }
  wl.closed_loop.resize(conns);
  for (int c = 0; c < conns; ++c) {
    for (int i = 0; i < 4000; ++i) wl.closed_loop[c].push_back(next());
  }
  wl.params = {{"tables", std::to_string(tables)},
               {"profile_rankings", std::to_string(profile)},
               {"open_loop_rate_rps", Fmt(rate_per_conn * conns)},
               {"open_loop_connections", std::to_string(conns)},
               {"closed_loop_connections", std::to_string(conns)},
               {"mix", "RUN A3/A4 35%, SELECT 35% (16 queries/table), "
                       "EVAL 20% (128-ranking pool/table), STATS 10%"}};
  return wl;
}

// --- ingest_fold ------------------------------------------------------------

Workload IngestFold(uint64_t seed, double seconds) {
  Workload wl;
  wl.why =
      "write path only: parse large APPENDs, coalesce, O(n^2) precedence "
      "fold and one fdatasync per FLUSH; no method runs while measured";
  wl.n = 200;
  wl.batch = 8;
  wl.log_dir = true;
  const size_t profile = 200;
  const double writer_rate = 500.0;
  const double eval_rate = 100.0;
  const int closed_conns = 2;
  TableSpec ingest = MakeTable("t_ingest", wl.n, profile, seed, 0);
  ingest.selects.clear();
  ingest.warm_eval.clear();
  // One precedence-based method run during set-up builds the table's
  // precedence matrix, so every measured fold does the O(n^2)-per-ranking
  // update; no method runs during the measured phases.
  ingest.warm_runs = {"RUN t_ingest A4"};
  wl.tables.push_back(std::move(ingest));
  // A static side table probed with EVAL: compute-class latency while the
  // server ingests. It is warm, so the probes are cache hits and no
  // method runs during the measured phases.
  TableSpec ref = MakeTable("t_ref", wl.n, profile, seed, 1);
  ref.selects.clear();
  wl.tables.push_back(std::move(ref));
  wl.leader_flags = {"--io-threads", "1", "--workers", "2"};

  const std::vector<Ranking> pool = Draw(wl.n, 512 * wl.batch, Mix(seed, 300));
  std::vector<std::string> appends;
  for (size_t b = 0; b < 512; ++b) {
    appends.push_back(AppendLine("t_ingest", pool, b * wl.batch, wl.batch));
  }
  std::vector<std::string> evals;
  for (const Ranking& r : Draw(wl.n, 64, Mix(seed, 301))) {
    evals.push_back(EvalLine("t_ref", r));
  }
  // Writer cycle: APPEND x4 then FLUSH; every 10th request is a STATS.
  const auto writer_line = [&](size_t i, size_t shift) {
    if (i % 10 == 9) return Line("STATS t_ingest");
    const size_t w = i - i / 10;
    if (w % 5 == 4) return Line("FLUSH t_ingest");
    return Line(appends[(w - w / 5 + shift) % appends.size()], wl.batch);
  };
  SetPhases(&wl, seconds);
  wl.conns.push_back({Target::kLeader, Role::kWriter, writer_rate});
  wl.conns.push_back({Target::kLeader, Role::kReader, eval_rate});
  Schedule(&wl, 0, wl.open_seconds, 0.0,
           [&](size_t i) { return writer_line(i, 0); });
  Schedule(&wl, 1, wl.open_seconds, 0.5,
           [&](size_t i) { return Line(evals[i % evals.size()]); });
  wl.closed_loop.resize(closed_conns);
  for (int c = 0; c < closed_conns; ++c) {
    for (size_t i = 0; i < 1000; ++i) {
      wl.closed_loop[c].push_back(writer_line(i, 256 * c));
    }
  }
  wl.params = {{"profile_rankings", std::to_string(profile)},
               {"batch_rankings", std::to_string(wl.batch)},
               {"writer_rate_rps", Fmt(writer_rate)},
               {"writer_cycle", "APPEND x4, FLUSH; STATS every 10th"},
               {"eval_probe_rate_rps", Fmt(eval_rate)},
               {"closed_loop", std::to_string(closed_conns) + " writers"},
               {"log_dir", "1"}};
  return wl;
}

// --- replica_read -----------------------------------------------------------

Workload ReplicaRead(uint64_t seed, double seconds) {
  Workload wl;
  wl.why =
      "leader with an op log streams folds to a follower that serves reads: "
      "log streaming, follower apply and invalidation, replication lag";
  wl.n = 200;
  wl.batch = 8;
  wl.log_dir = true;
  wl.follower = true;
  const size_t profile = 200;
  // Few enough folds that a follower read rarely meets an invalidated
  // result: the recompute cost stays out of the p90s (core.a3_us and
  // context_manager.run_miss_us carry it), so they measure serving.
  const double writer_rate = 1.0;
  // Fast enough that the readers racing to recompute after each fold fill
  // both follower workers, so that work repeats from run to run.
  const double reader_rate = 1000.0;
  // Lag resolution of 5 ms against 1 fold/s; the probe is not timed.
  const double probe_rate = 200.0;
  TableSpec t = MakeTable("t_rep", wl.n, profile, seed, 0);
  t.warm_runs = {"RUN t_rep A3"};
  // One greedy SELECT and one only the branch & bound ILP can certify.
  t.selects.resize(1);
  const CandidateTable cyclic = manirank::MakeCyclicTable(wl.n, kD0, kD1);
  const manirank::ConsensusContext ctx(t.seed, cyclic);
  t.selects.push_back(IlpSelect(t.name, wl.n, ctx.RunMethod("A3").consensus));
  wl.tables.push_back(t);
  wl.leader_flags = {"--io-threads", "1", "--workers", "1"};
  wl.follower_flags = {"--io-threads", "1", "--workers", "2"};
  std::vector<std::string> evals;
  for (const Ranking& r : Draw(wl.n, 64, Mix(seed, 500))) {
    evals.push_back(EvalLine("t_rep", r));
  }
  SetPhases(&wl, seconds);
  wl.closed_target = Target::kFollower;
  wl.written_table = "t_rep";
  const size_t folds = static_cast<size_t>(std::floor(seconds * writer_rate));
  wl.written_rankings = Draw(wl.n, folds * wl.batch, Mix(seed, 501));
  // The writer sends APPEND + FLUSH pairs to the leader, two requests per
  // fold. The latencies of this workload are the follower's: the leader's
  // write path is ingest_fold's to measure.
  wl.conns.push_back({Target::kLeader, Role::kWriter, 2 * writer_rate, false});
  Schedule(&wl, 0, seconds, 0.0, [&](size_t i) {
    if (i % 2 == 1) return Line("FLUSH t_rep");
    return Line(AppendLine("t_rep", wl.written_rankings, (i / 2) * wl.batch,
                           wl.batch),
                wl.batch);
  });
  SplitAtThroughputPhase(&wl, 0);
  // Reader cycle: RUN A3, SELECT greedy, SELECT ilp, EVAL, STATS.
  std::vector<std::string> set = {t.warm_runs[0]};
  set.insert(set.end(), t.selects.begin(), t.selects.end());
  const auto reader_line = [&](size_t i) {
    const size_t k = i % (set.size() + 2);
    if (k == set.size()) return Line(evals[i % evals.size()]);
    if (k == set.size() + 1) return Line("STATS t_rep");
    return Line(set[k]);
  };
  for (int r = 0; r < 2; ++r) {
    const int conn = static_cast<int>(wl.conns.size());
    wl.conns.push_back({Target::kFollower, Role::kReader, reader_rate});
    Schedule(&wl, conn, wl.open_seconds, 0.3 + 0.4 * r, reader_line);
    wl.closed_loop.emplace_back();
    for (size_t i = 0; i < 2000; ++i) {
      wl.closed_loop.back().push_back(reader_line(i));
    }
  }
  const int probe = static_cast<int>(wl.conns.size());
  wl.conns.push_back({Target::kFollower, Role::kProbe, probe_rate, false});
  Schedule(&wl, probe, wl.open_seconds, 0.1,
           [&](size_t) { return Line("STATS t_rep"); });
  wl.params = {{"profile_rankings", std::to_string(profile)},
               {"batch_rankings", std::to_string(wl.batch)},
               {"writer_folds_per_s", Fmt(writer_rate)},
               {"follower_readers", "2"},
               {"reader_rate_rps", Fmt(reader_rate)},
               {"query_cycle", "RUN A3, SELECT greedy, SELECT ilp, EVAL, STATS"},
               {"lag_probe_rate_rps", Fmt(probe_rate)},
               {"closed_loop", "the 2 follower readers; the writer keeps "
                               "its rate"},
               {"log_dir", "1 (leader)"}};
  return wl;
}

}  // namespace

const TableSpec& Workload::Table(const std::string& table_name) const {
  for (const TableSpec& t : tables) {
    if (t.name == table_name) return t;
  }
  throw std::invalid_argument("no table " + table_name);
}

Workload MakeWorkload(const std::string& name, uint64_t seed, double seconds) {
  Workload wl;
  if (name == "hot_read") {
    wl = HotRead(seed, seconds);
  } else if (name == "ingest_fold") {
    wl = IngestFold(seed, seconds);
  } else if (name == "replica_read") {
    wl = ReplicaRead(seed, seconds);
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  wl.name = name;
  wl.seed = seed;
  std::stable_sort(wl.open_loop.begin(), wl.open_loop.end(),
                   [](const Request& a, const Request& b) {
                     return a.due < b.due;
                   });
  wl.params.insert(wl.params.begin(),
                   {{"n", std::to_string(wl.n)},
                    {"theta", Fmt(kTheta)},
                    {"table", "CYCLIC n 4 3 (12 intersectional groups)"}});
  return wl;
}

std::vector<std::string> SeedLines(const TableSpec& table) {
  std::vector<std::string> lines = {"CREATE " + table.name + " CYCLIC " +
                                    std::to_string(table.n) + " " +
                                    std::to_string(kD0) + " " +
                                    std::to_string(kD1)};
  // ~200 KB per APPEND line.
  const size_t chunk = std::max<size_t>(1, 50000 / table.n);
  for (size_t i = 0; i < table.seed.size(); i += chunk) {
    lines.push_back(AppendLine(table.name, table.seed, i,
                               std::min(chunk, table.seed.size() - i)));
  }
  lines.push_back("FLUSH " + table.name);
  return lines;
}

std::vector<std::string> WarmLines(const TableSpec& table) {
  std::vector<std::string> lines = table.warm_runs;
  lines.insert(lines.end(), table.selects.begin(), table.selects.end());
  if (!table.warm_eval.empty()) lines.push_back(table.warm_eval);
  return lines;
}

std::string Verb(const std::string& line) {
  return line.substr(0, line.find(' '));
}

std::string TableOf(const std::string& line) {
  const size_t a = line.find(' ');
  if (a == std::string::npos) return "";
  const size_t b = line.find(' ', a + 1);
  return line.substr(a + 1, b == std::string::npos ? std::string::npos
                                                    : b - a - 1);
}

}  // namespace perfbench
