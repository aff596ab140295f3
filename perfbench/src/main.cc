// perfbench — out-of-process serving benchmark for manirank_serve.
//
// Usage:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --serve-bin PATH --work-dir DIR [--commit TEXT]
//
// Spawns the server(s) the workload needs on ephemeral loopback ports,
// seeds and warms them (the set-up, timed), drives the workload's
// pre-generated traffic from this process (open loop, then closed loop),
// checks every response, and prints a self-describing report line
// followed by the one-line result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, from in-process replays of the same stream (trace.h).
// Exit status: 0 when a result was printed, 2 on usage or set-up errors.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <unistd.h>

#include "checker.h"
#include "loadgen.h"
#include "server.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Untraced runs repeat the set-up (at least kMinSetups times, more while
/// the repeats and their teardowns fit in kSetupBudgetS) and report the
/// median as setup_s.
constexpr size_t kMinSetups = 3;
constexpr size_t kMaxSetups = 15;
constexpr double kSetupBudgetS = 2.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string serve_bin;
  std::string work_dir;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0;
    } else if (flag == "--trace") {
      a.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--serve-bin") {
      a.serve_bin = value;
    } else if (flag == "--work-dir") {
      a.work_dir = value;
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !have_seed || !have_seconds ||
      !have_trace || a.serve_bin.empty() || a.work_dir.empty()) {
    throw std::invalid_argument(
        "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--serve-bin PATH --work-dir DIR [--commit TEXT]");
  }
  return a;
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void ExpectOk(const std::vector<std::string>& responses, const char* what) {
  for (const std::string& r : responses) {
    if (r.compare(0, 3, "OK ") != 0) {
      throw std::runtime_error(std::string(what) + " failed: " +
                               r.substr(0, 200));
    }
  }
}

/// The server processes of one set-up.
struct Deployment {
  std::unique_ptr<ServerProcess> leader;
  std::unique_ptr<ServerProcess> follower;
  int follower_port() const { return follower ? follower->port() : 0; }
  /// The process that serves the workload's reads.
  ServerProcess& reads() { return follower ? *follower : *leader; }
  /// CPU seconds used by the server processes so far.
  double CpuSeconds() const {
    return leader->CpuSeconds() + (follower ? follower->CpuSeconds() : 0.0);
  }
};

uint64_t StatsGeneration(int port, const std::string& table) {
  LineClient client(port);
  const std::string r = client.Call("STATS " + table);
  return r.compare(0, 3, "OK ") == 0
             ? static_cast<uint64_t>(Field(r, "generation", 0))
             : UINT64_MAX;
}

/// Waits until the follower serves every table at the leader's generation.
void AwaitFollower(const Workload& wl, const Deployment& d) {
  const Clock::time_point t0 = Clock::now();
  for (const TableSpec& t : wl.tables) {
    const uint64_t want = StatsGeneration(d.leader->port(), t.name);
    while (StatsGeneration(d.follower->port(), t.name) != want) {
      if (SecondsSince(t0) > 60.0) {
        throw std::runtime_error("follower did not catch up with " + t.name);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
}

/// Spawns, seeds and warms the workload's servers. Ready means the
/// profile is folded, every query key has been warmed once, and the
/// follower (if any) has caught up.
Deployment SetUp(const Workload& wl, const Args& args, const std::string& dir,
                 const std::vector<int>& cpus) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Deployment d;
  std::vector<std::string> flags = {"--port", "0"};
  flags.insert(flags.end(), wl.leader_flags.begin(), wl.leader_flags.end());
  if (wl.log_dir) {
    std::filesystem::create_directories(dir + "/log");
    flags.insert(flags.end(), {"--log-dir", dir + "/log"});
  }
  // With a follower and at least three server CPUs, each process gets
  // its own: leader on the first, follower on the rest.
  const bool split = wl.follower && cpus.size() >= 3;
  const std::vector<int> leader_cpus =
      split ? std::vector<int>{cpus.front()} : cpus;
  const std::vector<int> follower_cpus =
      split ? std::vector<int>(cpus.begin() + 1, cpus.end()) : cpus;
  d.leader = std::make_unique<ServerProcess>(args.serve_bin, flags,
                                             dir + "/leader.stderr",
                                             leader_cpus);
  std::vector<std::string> seed;
  std::vector<std::string> warm;
  for (const TableSpec& t : wl.tables) {
    for (std::string& l : SeedLines(t)) seed.push_back(std::move(l));
    for (std::string& l : WarmLines(t)) warm.push_back(std::move(l));
  }
  {
    LineClient client(d.leader->port());
    ExpectOk(client.Pipeline(seed), "seeding");
  }
  if (wl.follower) {
    std::vector<std::string> fflags = {"--port", "0", "--follow",
                                       "127.0.0.1:" +
                                           std::to_string(d.leader->port())};
    fflags.insert(fflags.end(), wl.follower_flags.begin(),
                  wl.follower_flags.end());
    d.follower = std::make_unique<ServerProcess>(
        args.serve_bin, fflags, dir + "/follower.stderr", follower_cpus);
    AwaitFollower(wl, d);
  }
  LineClient client(d.reads().port());
  ExpectOk(client.Pipeline(warm), "warm-up");
  return d;
}

/// METRICS of one server as key -> value.
std::map<std::string, double> Metrics(int port) {
  LineClient client(port);
  const std::string r = client.Call("METRICS");
  std::map<std::string, double> m;
  std::istringstream in(r);
  std::string token;
  while (in >> token) {
    const size_t eq = token.find('=');
    if (eq != std::string::npos) {
      m[token.substr(0, eq)] = std::strtod(token.c_str() + eq + 1, nullptr);
    }
  }
  return m;
}

struct Snapshot {
  std::map<std::string, double> leader, follower;
  std::string fold_stats;  ///< STATS of the fold table where reads go
  std::string leader_stats;
};

Snapshot Capture(const Deployment& d, const std::string& fold_table) {
  Snapshot s;
  s.leader = Metrics(d.leader->port());
  if (d.follower) s.follower = Metrics(d.follower->port());
  LineClient leader(d.leader->port());
  s.leader_stats = leader.Call("STATS " + fold_table);
  if (d.follower) {
    LineClient follower(d.follower->port());
    s.fold_stats = follower.Call("STATS " + fold_table);
  } else {
    s.fold_stats = s.leader_stats;
  }
  return s;
}

WireCounters Delta(const Snapshot& a, const Snapshot& b,
                   const std::string& fold_table) {
  WireCounters w;
  const auto both = [&](const char* key) {
    double v = 0;
    for (const auto* pair : {&a.leader, &a.follower}) {
      const auto& after = pair == &a.leader ? b.leader : b.follower;
      const auto it_a = pair->find(key);
      const auto it_b = after.find(key);
      if (it_a != pair->end() && it_b != after.end()) {
        v += it_b->second - it_a->second;
      }
    }
    return v;
  };
  w.served = both("served");
  w.inline_served = both("inline");
  w.bytes_in = both("bytes_in");
  w.bytes_out = both("bytes_out");
  w.parked_drains = both("parked_drains");
  w.backpressure_stalls = both("backpressure_stalls");
  w.cache_hits = both("result_cache_hits");
  w.cache_misses = both("result_cache_misses");
  w.fold_table = fold_table;
  w.folds = Field(b.fold_stats, "applied_batches", 0) -
            Field(a.fold_stats, "applied_batches", 0);
  w.fold_table_misses = Field(b.fold_stats, "cache_misses", 0) -
                        Field(a.fold_stats, "cache_misses", 0);
  w.applied_rankings = Field(b.leader_stats, "applied_rankings", 0);
  w.applied_batches = Field(b.leader_stats, "applied_batches", 0);
  w.oplog_bytes = Field(b.leader_stats, "oplog_bytes", 0) -
                  Field(a.leader_stats, "oplog_bytes", 0);
  w.oplog_records = Field(b.leader_stats, "oplog_records", 0) -
                    Field(a.leader_stats, "oplog_records", 0);
  w.replica_bytes = Field(b.fold_stats, "replica_bytes_streamed", 0) -
                    Field(a.fold_stats, "replica_bytes_streamed", 0);
  return w;
}

/// After the measured phases: every appended ranking must be folded on
/// the leader (final generation = seed + rankings sent) and, with a
/// follower, replicated. Returns problems found.
std::vector<std::string> FinalChecks(const Workload& wl, const LoadResult& load,
                                     const Deployment& d) {
  std::vector<std::string> problems;
  LineClient leader(d.leader->port());
  for (const TableSpec& t : wl.tables) {
    const auto it = load.appended.find(t.name);
    const uint64_t appended = it == load.appended.end() ? 0 : it->second;
    if (appended == 0) continue;
    ExpectOk({leader.Call("FLUSH " + t.name)}, "final FLUSH");
    const uint64_t want = t.seed.size() + appended;
    const uint64_t got = StatsGeneration(d.leader->port(), t.name);
    if (got != want) {
      problems.push_back(t.name + ": final generation " + std::to_string(got) +
                         " != rankings sent " + std::to_string(want));
    }
  }
  if (d.follower) {
    try {
      AwaitFollower(wl, d);
    } catch (const std::exception& e) {
      problems.push_back(e.what());
    }
  }
  return problems;
}

std::string Json(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Aggregate CPU time counters of the host (/proc/stat "cpu" line):
/// {steal, total} in clock ticks.
std::pair<double, double> CpuSteal() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  double total = 0.0;
  double steal = 0.0;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Windows with fewer samples than this are left out of the medians.
constexpr size_t kMinWindowSamples = 20;

/// Median over the windows of each window's q-percentile.
double WindowMedian(const std::vector<std::vector<double>>& windows, double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= kMinWindowSamples) per_window.push_back(Percentile(w, q));
  }
  return Percentile(per_window, 0.5);
}

std::string Join(const std::vector<std::string>& v) {
  std::string out;
  for (const std::string& s : v) out += (out.empty() ? "" : " ") + s;
  return out;
}

int Run(const Args& args) {
  const Clock::time_point generation_start = Clock::now();
  const Workload wl = MakeWorkload(args.workload, args.seed, args.seconds);
  const double generation_s = SecondsSince(generation_start);
  const std::vector<int> server_cpus = ReserveLastCpu();
  // Start from clean page cache state: write-back left over from earlier
  // runs (op logs) must not land in this run's measurement.
  ::sync();
  std::filesystem::create_directories(args.work_dir);

  // Set-up: untraced runs repeat it and report the median.
  std::vector<double> setup_s;
  const Clock::time_point setups_start = Clock::now();
  Deployment d;
  do {
    d = Deployment();  // stops the previous set-up's servers first
    const Clock::time_point t0 = Clock::now();
    d = SetUp(wl, args,
              args.work_dir + "/server" + std::to_string(setup_s.size()),
              server_cpus);
    setup_s.push_back(SecondsSince(t0));
  } while (!args.trace && setup_s.size() < kMaxSetups &&
           (setup_s.size() < kMinSetups ||
            SecondsSince(setups_start) < kSetupBudgetS));

  const std::string fold_table =
      wl.written_table.empty() ? wl.tables.front().name : wl.written_table;
  const Snapshot before = Capture(d, fold_table);
  // Memory is read after the fixed-rate latency phase: the closed-loop
  // phase appends as fast as the server allows, so peak memory there would
  // track throughput rather than the server's footprint.
  double rss_mb = 0.0;
  const std::pair<double, double> cpu_before = CpuSteal();
  const double server_cpu_before = d.CpuSeconds();
  double server_cpu_s = 0.0;
  const LoadResult load =
      RunLoad(wl, d.leader->port(), d.follower_port(), [&] {
        server_cpu_s = d.CpuSeconds() - server_cpu_before;
        rss_mb = d.leader->PeakRssMb();
        if (d.follower) rss_mb += d.follower->PeakRssMb();
      });
  const std::pair<double, double> cpu_after = CpuSteal();
  const Snapshot after = Capture(d, fold_table);
  const WireCounters wire = Delta(before, after, fold_table);
  std::vector<std::string> problems = FinalChecks(wl, load, d);
  d.follower.reset();
  d.leader.reset();

  const ReplayReport replay = ReplayCheck(wl, load.samples);
  for (const std::string& m : replay.details) problems.push_back(m);
  const uint64_t failed = load.errors + load.missing + load.rejected;
  const bool correct = problems.empty() && replay.mismatched == 0 &&
                       failed == 0 && load.samples.size() > 0;

  // Client-observed throughput and latency. On a shared VM they swing with
  // the hypervisor's steal by far more than any usable bound, so they are
  // reported without one: among the per-layer metrics of traced runs, and
  // in the report's extras otherwise.
  std::vector<Metric> client;
  std::vector<double> window_rps;
  for (const ClosedWindow& w : load.closed_windows) window_rps.push_back(w.Rate());
  client.push_back({"throughput_rps", Percentile(window_rps, 0.5), "req/s",
                    load.closed_ok});
  for (int c = 0; c < kClasses; ++c) {
    const std::string name = std::string("lat_") + ClassName(c);
    const auto& windows = load.window_latency_ms[c];
    const size_t samples = load.latency_ms[c].size();
    client.push_back({name + "_p50_ms", WindowMedian(windows, 0.5), "ms", samples});
    client.push_back({name + "_p90_ms", WindowMedian(windows, 0.9), "ms", samples});
  }

  std::vector<Metric> metrics;
  // Reported with sample counts in the report line only.
  std::vector<Metric> extras;
  if (args.trace) {
    metrics = PerLayerMetrics(wl, load, wire, args.work_dir + "/trace");
    metrics.insert(metrics.end(), client.begin(), client.end());
  } else {
    metrics.push_back({"setup_s", Percentile(setup_s, 0.5), "s", setup_s.size()});
    metrics.push_back({"server_cpu_us_per_req",
                       server_cpu_s * 1e6 / static_cast<double>(wl.open_loop.size()),
                       "us", wl.open_loop.size()});
    metrics.push_back({"server_rss_mb", rss_mb, "MB", 1});
    extras = client;
    extras.push_back({"loadgen.late_p99_ms", Percentile(load.late_ms, 0.99),
                      "ms", load.late_ms.size()});
  }
  for (int c = 0; c < kClasses; ++c) {
    const std::vector<double>& v = load.latency_ms[c];
    extras.push_back({std::string("lat_") + ClassName(c) + "_p99_ms",
                      Percentile(v, 0.99), "ms", v.size()});
  }
  // Share of the host's CPU time taken by the hypervisor while the phases
  // ran: context for a run whose numbers stand out.
  const double ticks = cpu_after.second - cpu_before.second;
  extras.push_back({"host.steal_frac",
                    ticks > 0 ? (cpu_after.first - cpu_before.first) / ticks : 0.0,
                    "ratio", 1});

  // Self-describing report (one line), then the result object.
  std::ostringstream report;
  report << "{\"report\":{\"workload\":" << Json(wl.name)
         << ",\"why\":" << Json(wl.why) << ",\"seed\":" << args.seed
         << ",\"seconds\":" << Num(args.seconds)
         << ",\"trace\":" << (args.trace ? 1 : 0)
         << ",\"commit\":" << Json(args.commit)
         << ",\"nproc\":" << std::thread::hardware_concurrency()
         << ",\"cpu\":" << Json(CpuModel())
         << ",\"leader_flags\":" << Json(Join(wl.leader_flags))
         << ",\"follower_flags\":" << Json(Join(wl.follower_flags))
         << ",\"generation_s\":" << Num(generation_s) << ",\"params\":{";
  for (size_t i = 0; i < wl.params.size(); ++i) {
    report << (i ? "," : "") << Json(wl.params[i].first) << ":"
           << Json(wl.params[i].second);
  }
  report << "},\"requests\":{\"attempted\":" << load.attempted
         << ",\"err\":" << load.errors << ",\"missing\":" << load.missing
         << ",\"rejected\":" << load.rejected
         << ",\"replay_checked\":" << replay.checked
         << ",\"replay_mismatched\":" << replay.mismatched << "},\"problems\":[";
  std::vector<std::string> notes = problems;
  notes.insert(notes.end(), load.failures.begin(), load.failures.end());
  for (size_t i = 0; i < notes.size(); ++i) {
    report << (i ? "," : "") << Json(notes[i]);
  }
  const auto write_metrics = [&report](const std::vector<Metric>& list) {
    for (size_t i = 0; i < list.size(); ++i) {
      const Metric& m = list[i];
      report << (i ? "," : "") << "{\"name\":" << Json(m.name)
             << ",\"value\":" << Num(m.value) << ",\"unit\":" << Json(m.unit)
             << ",\"samples\":" << m.samples << "}";
    }
  };
  report << "],\"metrics\":[";
  write_metrics(metrics);
  report << "],\"extras\":[";
  write_metrics(extras);
  report << "]}}";
  std::ofstream(args.work_dir + "/report.json") << report.str() << "\n";
  std::cout << report.str() << "\n";

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << load.attempted
            << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::cout << (i ? ", " : "") << Json(m.name) << ": {\"value\": "
              << Num(m.value) << ", \"unit\": " << Json(m.unit) << "}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
