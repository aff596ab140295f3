#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>

#include "core/candidate_table.h"
#include "core/context.h"
#include "core/distance.h"
#include "core/fair_select.h"
#include "data/op_log.h"
#include "data/synthetic.h"
#include "serve/context_manager.h"
#include "serve/durability.h"
#include "serve/protocol.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using manirank::OpRecord;
using manirank::Ranking;
using manirank::TableSnapshot;
using manirank::serve::ContextManager;
using manirank::serve::Dispatcher;
using manirank::serve::DurabilityHook;
using manirank::serve::DurabilityManager;
using manirank::serve::SelectConstraintSpec;
using manirank::serve::SelectQuery;

/// Requests replayed per pass (on at most kReplayTables tables: the four
/// hot_read tables are alike), and calls per core-layer replay.
constexpr size_t kMaxReplay = 8000;
constexpr size_t kReplayTables = 2;
/// Requests per interleaved traced / untraced chunk (trace.overhead_frac).
constexpr size_t kOverheadChunk = 50;
constexpr size_t kMaxCoreCalls = 64;
constexpr size_t kMaxFoldRankings = 4000;
/// Uncached method runs: up to kMethodReps, while they fit kMethodBudgetS.
constexpr size_t kMethodReps = 3;
constexpr double kMethodBudgetS = 0.3;
const char* const kVerbs[] = {"append", "flush", "run", "eval", "select",
                              "stats"};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// In-memory span store. Spans nest through an open-span stack, so a
/// hook firing inside a timed call records the call's span as its parent.
/// Everything stays in memory until WriteJsonl at the end of the run.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    long parent = -1;
    long request = -1;
  };

  long Begin(std::string name) {
    spans_.push_back({std::move(name), NowUs(), 0.0, open_, request_});
    open_ = static_cast<long>(spans_.size()) - 1;
    return open_;
  }
  void End(long id) {
    spans_[id].end_us = NowUs();
    open_ = spans_[id].parent;
  }
  double DurationUs(long id) const {
    return spans_[id].end_us - spans_[id].start_us;
  }
  void Rename(long id, std::string name) { spans_[id].name = std::move(name); }
  void set_request(long request) { request_ = request; }
  /// Drops every span recorded after the first `size` (set-up noise).
  void Truncate(size_t size) {
    spans_.resize(size);
    open_ = -1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (us) of spans named `name` whose parent's name starts with
  /// `parent_prefix` (empty: any parent).
  std::vector<double> Durations(const std::string& name,
                                const std::string& parent_prefix = "") const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name != name) continue;
      if (!parent_prefix.empty() &&
          (s.parent < 0 ||
           spans_[s.parent].name.compare(0, parent_prefix.size(),
                                         parent_prefix) != 0)) {
        continue;
      }
      out.push_back(s.end_us - s.start_us);
    }
    return out;
  }

  void WriteJsonl(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_us\":" << s.start_us << ",\"end_us\":" << s.end_us
          << ",\"parent\":" << s.parent << ",\"request\":" << s.request
          << "}\n";
    }
  }

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - base_)
        .count();
  }

  const Clock::time_point base_ = Clock::now();
  std::vector<Span> spans_;
  long open_ = -1;
  long request_ = -1;
};

/// DurabilityHook decorator: forwards every call to the real
/// DurabilityManager and records the fold-group calls as spans (children
/// of whatever call is open — the ContextManager verb that folded).
/// CommitFold is the fdatasync. Appended batches are kept as op records
/// so the replica layer can be replayed on them.
class TimedDurability : public DurabilityHook {
 public:
  TimedDurability(DurabilityHook* inner, SpanRecorder* recorder)
      : inner_(inner), recorder_(recorder) {}

  void LogAppend(const std::string& table,
                 const std::vector<Ranking>& batch) override {
    const long id = recorder_->Begin("durability.log_append");
    inner_->LogAppend(table, batch);
    recorder_->End(id);
    OpRecord record;
    record.rankings = batch;
    records_.push_back(std::move(record));
  }
  void LogRemove(const std::string& table, uint64_t index) override {
    inner_->LogRemove(table, index);
  }
  void AbortLastOp(const std::string& table) override {
    inner_->AbortLastOp(table);
    if (!records_.empty()) records_.pop_back();
  }
  void CommitFold(const std::string& table) override {
    const long id = recorder_->Begin("durability.commit");
    inner_->CommitFold(table);
    recorder_->End(id);
  }
  void OnTableRegistered(const std::string& table,
                         const TableSnapshot& floor) override {
    inner_->OnTableRegistered(table, floor);
  }
  void OnTableDropped(const std::string& table) override {
    inner_->OnTableDropped(table);
  }

  std::vector<OpRecord>& records() { return records_; }

 private:
  DurabilityHook* inner_;
  SpanRecorder* recorder_;
  std::vector<OpRecord> records_;
};

/// One in-process serving stack over the workload's first kReplayTables
/// seeded tables, set up exactly like the server: durability first (when
/// the workload uses --log-dir), then the seed and warm lines through a
/// Dispatcher.
class Instance {
 public:
  Instance(const Workload& wl, const std::string& dir, SpanRecorder* recorder)
      : dispatcher_(&manager_) {
    if (wl.log_dir) {
      std::filesystem::create_directories(dir);
      durability_ = std::make_unique<DurabilityManager>(dir, &manager_);
      durability_->ColdStart();
      durability_->Attach();
      if (recorder != nullptr) {
        hook_ = std::make_unique<TimedDurability>(durability_.get(), recorder);
        manager_.SetDurabilityHook(hook_.get());
      }
    }
    for (size_t i = 0; i < wl.tables.size() && i < kReplayTables; ++i) {
      const TableSpec& t = wl.tables[i];
      std::vector<std::string> lines = SeedLines(t);
      for (const std::string& l : WarmLines(t)) lines.push_back(l);
      for (const std::string& line : lines) {
        const std::string response = dispatcher_.Handle(line);
        if (response.compare(0, 3, "OK ") != 0) {
          throw std::runtime_error("in-process set-up failed: " +
                                   response.substr(0, 200));
        }
      }
    }
    if (hook_ != nullptr) hook_->records().clear();
  }
  ~Instance() {
    manager_.SetDrainObserver(nullptr);
    manager_.SetDurabilityHook(nullptr);
  }
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;

  ContextManager& manager() { return manager_; }
  Dispatcher& dispatcher() { return dispatcher_; }
  TimedDurability* hook() { return hook_.get(); }

 private:
  ContextManager manager_;
  Dispatcher dispatcher_;
  std::unique_ptr<DurabilityManager> durability_;
  std::unique_ptr<TimedDurability> hook_;
};

/// A request line parsed into the ContextManager call Dispatcher::Handle
/// makes for it, so the manager can be timed without the protocol layer.
struct Call {
  std::string verb;
  std::string table;
  std::vector<Ranking> rankings;
  std::string method;
  manirank::ConsensusOptions options;
  SelectQuery query;
};

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : line) {
    if (c == ' ' || c == ';') {
      if (!cur.empty()) out.push_back(std::move(cur));
      cur.clear();
      if (c == ';') out.emplace_back(";");
    } else {
      cur.push_back(c);
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

Call ParseCall(const std::string& line) {
  const std::vector<std::string> tok = Tokens(line);
  Call call;
  call.verb = Lower(tok.at(0));
  call.table = tok.at(1);
  if (call.verb == "append" || call.verb == "eval") {
    std::vector<manirank::CandidateId> order;
    for (size_t i = 2; i <= tok.size(); ++i) {
      if (i == tok.size() || tok[i] == ";") {
        call.rankings.emplace_back(std::move(order));
        order.clear();
      } else {
        order.push_back(std::stoi(tok[i]));
      }
    }
  } else if (call.verb == "run") {
    call.method = tok.at(2);
    // Dispatcher's RUN default budget, so the cache keys match.
    call.options.time_limit_seconds = 30.0;
    for (size_t i = 3; i + 1 < tok.size(); i += 2) {
      if (tok[i] == "DELTA") call.options.delta = std::stod(tok[i + 1]);
      if (tok[i] == "LIMIT") call.options.time_limit_seconds = std::stod(tok[i + 1]);
    }
  } else if (call.verb == "select") {
    call.query.k = std::stoi(tok.at(2));
    for (size_t i = 3; i < tok.size();) {
      if (tok[i] == "LIMIT") {
        call.query.time_limit_seconds = std::stod(tok.at(i + 1));
        i += 2;
        continue;
      }
      SelectConstraintSpec spec;
      size_t j = i + 1;
      spec.attribute = tok[i] == "ATTR" ? std::stoi(tok.at(j++))
                                        : SelectConstraintSpec::kIntersection;
      spec.group = std::stoi(tok.at(j++));
      spec.min_count = std::stoi(tok.at(j++));
      spec.max_count = std::stoi(tok.at(j++));
      call.query.constraints.push_back(spec);
      i = j;
    }
  }
  return call;
}

/// Invokes the call on the manager; `rankings` is the caller's copy of
/// the payload (made outside the timed region).
void Invoke(ContextManager& m, const Call& c, std::vector<Ranking> rankings) {
  if (c.verb == "append") {
    m.Append(c.table, std::move(rankings));
  } else if (c.verb == "flush") {
    m.Flush(c.table);
  } else if (c.verb == "run") {
    uint64_t generation = 0;
    m.Run(c.table, c.method, c.options, &generation);
  } else if (c.verb == "eval") {
    m.Eval(c.table, rankings.at(0));
  } else if (c.verb == "select") {
    m.Select(c.table, c.query);
  } else if (c.verb == "stats") {
    m.Stats(c.table);
  } else {
    throw std::invalid_argument("no direct call for verb " + c.verb);
  }
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Core-layer state of one table: a bare ConsensusContext brought to the
/// state the server's context has (seed folded, warm methods run, the
/// mix's folds applied) plus its A3 consensus.
struct CoreTable {
  std::unique_ptr<manirank::CandidateTable> table;
  std::unique_ptr<manirank::ConsensusContext> ctx;
  Ranking a3;
};

class Collector {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples) {
    metrics_.push_back({std::move(name), value, std::move(unit), samples});
  }
  /// Median of `values` in `unit`; 0 with 0 samples when empty.
  void AddMedian(std::string name, const std::vector<double>& values,
                 std::string unit) {
    Add(std::move(name), Median(values), std::move(unit), values.size());
  }
  std::vector<Metric> Take() { return std::move(metrics_); }

 private:
  std::vector<Metric> metrics_;
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

std::vector<Metric> PerLayerMetrics(const Workload& wl, const LoadResult& load,
                                    const WireCounters& wire,
                                    const std::string& scratch_dir) {
  Collector out;
  // The replayed stream: the latency phase's requests in due order, up to
  // kMaxReplay of them; lag probes are instrumentation and are skipped.
  std::set<std::string> tables;
  for (size_t i = 0; i < wl.tables.size() && i < kReplayTables; ++i) {
    tables.insert(wl.tables[i].name);
  }
  std::vector<const Request*> stream;
  for (const Request& r : wl.open_loop) {
    if (tables.count(TableOf(r.line)) == 0) continue;
    if (wl.conns[r.conn].role == Role::kProbe) continue;
    if (stream.size() == kMaxReplay) break;
    stream.push_back(&r);
  }
  std::vector<Call> calls;
  for (const Request* r : stream) calls.push_back(ParseCall(r->line));

  SpanRecorder recorder;
  // Pass A: the protocol layer, Dispatcher::Handle per request (traced),
  // interleaved chunk by chunk with an untraced twin (C) so both see the
  // same machine: their wall-time ratio is the tracing overhead.
  std::vector<double> handle_us(stream.size());
  double traced_wall = 0.0;
  double untraced_wall = 0.0;
  size_t replay_errors = 0;
  {
    Instance a(wl, scratch_dir + "/replay_a", &recorder);
    Instance c(wl, scratch_dir + "/replay_c", nullptr);
    recorder.Truncate(0);
    for (size_t begin = 0; begin < stream.size(); begin += kOverheadChunk) {
      const size_t end = std::min(stream.size(), begin + kOverheadChunk);
      Clock::time_point t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) {
        recorder.set_request(static_cast<long>(i));
        const long id = recorder.Begin("protocol.handle." + calls[i].verb);
        const std::string response = a.dispatcher().Handle(stream[i]->line);
        recorder.End(id);
        handle_us[i] = recorder.DurationUs(id);
        if (response.compare(0, 3, "OK ") != 0) ++replay_errors;
      }
      traced_wall += SecondsSince(t0);
      t0 = Clock::now();
      for (size_t i = begin; i < end; ++i) c.dispatcher().Handle(stream[i]->line);
      untraced_wall += SecondsSince(t0);
    }
  }

  // Pass B: the same requests as direct ContextManager calls on an
  // identical twin. Self time of the protocol layer = Handle - call.
  std::vector<double> cm_us(stream.size());
  std::vector<OpRecord> fold_records;
  double keys_per_fold = 0.0;
  size_t fold_spans = 0;
  size_t durability_spans = 0;
  {
    const size_t mark = recorder.spans().size();
    Instance b(wl, scratch_dir + "/replay_b", &recorder);
    recorder.Truncate(mark);
    b.manager().SetDrainObserver([&recorder](const std::string&) {
      // Fires on the draining thread after the fold released the gate:
      // an instant child span of the verb that folded.
      recorder.End(recorder.Begin("context_manager.drain"));
    });
    for (size_t i = 0; i < stream.size(); ++i) {
      recorder.set_request(static_cast<long>(i));
      std::vector<Ranking> payload = calls[i].rankings;
      const uint64_t misses = b.manager().ResultCacheTotals().misses;
      const long id = recorder.Begin("context_manager." + calls[i].verb);
      Invoke(b.manager(), calls[i], std::move(payload));
      recorder.End(id);
      cm_us[i] = recorder.DurationUs(id);
      if (calls[i].verb == "run") {
        const bool miss = b.manager().ResultCacheTotals().misses != misses;
        recorder.Rename(id, miss ? "context_manager.run_miss"
                                 : "context_manager.run_hit");
      }
    }
    for (size_t i = mark; i < recorder.spans().size(); ++i) {
      const std::string& name = recorder.spans()[i].name;
      if (name == "context_manager.drain") ++fold_spans;
      if (name.compare(0, 11, "durability.") == 0) ++durability_spans;
    }
    if (b.hook() != nullptr) fold_records = b.hook()->records();
    // Distinct result-cache keys one generation of the mix touches on the
    // written table: fold once more, then send each distinct query once.
    if (!wl.written_table.empty()) {
      b.manager().Append(wl.written_table,
                         {wl.Table(wl.written_table).seed.front()});
      b.manager().Flush(wl.written_table);
      const uint64_t misses = b.manager().ResultCacheTotals().misses;
      std::set<std::string> seen;
      for (size_t i = 0; i < stream.size(); ++i) {
        const Call& c = calls[i];
        if (c.table != wl.written_table ||
            (c.verb != "run" && c.verb != "select" && c.verb != "eval")) {
          continue;
        }
        const std::string key = c.verb == "eval" ? "eval" : stream[i]->line;
        if (!seen.insert(key).second) continue;
        Invoke(b.manager(), c, c.rankings);
      }
      keys_per_fold = static_cast<double>(
          b.manager().ResultCacheTotals().misses - misses);
    }
    b.manager().SetDrainObserver(nullptr);
  }

  // Per-verb protocol and manager times.
  std::map<std::string, std::vector<double>> handle_by, self_by, cm_by;
  std::vector<double> handle_by_class[kClasses];
  for (size_t i = 0; i < stream.size(); ++i) {
    const std::string& v = calls[i].verb;
    handle_by[v].push_back(handle_us[i]);
    self_by[v].push_back(handle_us[i] - cm_us[i]);
    handle_by_class[ClassOf(stream[i]->line)].push_back(handle_us[i]);
  }
  for (const char* v : kVerbs) {
    out.AddMedian(std::string("protocol.handle_us.") + v, handle_by[v], "us");
  }
  for (const char* v : kVerbs) {
    out.AddMedian(std::string("protocol.self_us.") + v, self_by[v], "us");
  }
  out.Add("protocol.bytes_in_per_req", Ratio(wire.bytes_in, wire.served),
          "bytes", static_cast<size_t>(wire.served));
  out.Add("protocol.bytes_out_per_req", Ratio(wire.bytes_out, wire.served),
          "bytes", static_cast<size_t>(wire.served));

  // Executor: client-observed p50 minus in-process service p50.
  for (int c = 0; c < kClasses; ++c) {
    const double client_us = Median(load.latency_ms[c]) * 1e3;
    const double service_us = Median(handle_by_class[c]);
    out.Add(std::string("executor.wait_us.") + ClassName(c),
            load.latency_ms[c].empty() ? 0.0 : client_us - service_us, "us",
            load.latency_ms[c].size());
  }
  out.Add("executor.inline_frac", Ratio(wire.inline_served, wire.served),
          "ratio", static_cast<size_t>(wire.served));
  out.Add("executor.parked_drains", wire.parked_drains, "count", 1);
  out.Add("executor.backpressure_stalls", wire.backpressure_stalls, "count",
          1);

  // Context manager.
  const auto span_us = [&](const std::string& name) {
    return recorder.Durations(name);
  };
  out.AddMedian("context_manager.append_us", span_us("context_manager.append"),
                "us");
  out.AddMedian("context_manager.flush_us", span_us("context_manager.flush"),
                "us");
  out.AddMedian("context_manager.run_hit_us",
                span_us("context_manager.run_hit"), "us");
  out.AddMedian("context_manager.run_miss_us",
                span_us("context_manager.run_miss"), "us");
  out.AddMedian("context_manager.eval_us", span_us("context_manager.eval"),
                "us");
  out.AddMedian("context_manager.select_us", span_us("context_manager.select"),
                "us");
  out.Add("context_manager.rankings_per_fold",
          Ratio(wire.applied_rankings, wire.applied_batches), "rankings",
          static_cast<size_t>(wire.applied_batches));

  // Result cache.
  out.Add("result_cache.hit_ratio",
          Ratio(wire.cache_hits, wire.cache_hits + wire.cache_misses), "ratio",
          static_cast<size_t>(wire.cache_hits + wire.cache_misses));
  out.Add("result_cache.misses_per_fold_key",
          Ratio(wire.fold_table_misses, wire.folds * keys_per_fold), "ratio",
          static_cast<size_t>(wire.folds));
  out.Add("result_cache.fold_table_misses", wire.fold_table_misses, "count", 1);
  out.Add("result_cache.fold_table_folds", wire.folds, "count", 1);
  out.Add("result_cache.keys_per_fold", keys_per_fold, "count", 1);

  // Core, replayed against bare contexts. Folds: the mix's appends to the
  // fold table, coalesced up to each draining verb as the manager does;
  // with no appends in the mix, the set-up's seed chunks.
  const std::string fold_table = wire.fold_table;
  std::vector<std::vector<Ranking>> folds;
  {
    std::vector<Ranking> pending;
    size_t total = 0;
    for (size_t i = 0; i < stream.size() && total < kMaxFoldRankings; ++i) {
      const Call& c = calls[i];
      if (c.table != fold_table) continue;
      if (c.verb == "append") {
        pending.insert(pending.end(), c.rankings.begin(), c.rankings.end());
      } else if ((c.verb == "run" || c.verb == "flush") && !pending.empty()) {
        total += pending.size();
        folds.push_back(std::move(pending));
        pending.clear();
      }
    }
  }
  const bool seed_folds = folds.empty();
  std::map<std::string, CoreTable> core;
  std::vector<double> fold_us;
  size_t folded_rankings = 0;
  const auto core_table = [&](const std::string& name) -> CoreTable& {
    auto it = core.find(name);
    if (it != core.end()) return it->second;
    const TableSpec& spec = wl.Table(name);
    CoreTable t;
    t.table = std::make_unique<manirank::CandidateTable>(
        manirank::MakeCyclicTable(spec.n, 4, 3));
    t.ctx = std::make_unique<manirank::ConsensusContext>(
        std::vector<Ranking>{}, *t.table);
    const size_t chunk = std::max<size_t>(1, 50000 / spec.n);
    const bool time_seed = seed_folds && name == fold_table;
    for (size_t i = 0; i < spec.seed.size(); i += chunk) {
      std::vector<Ranking> batch(
          spec.seed.begin() + i,
          spec.seed.begin() + std::min(spec.seed.size(), i + chunk));
      const size_t size = batch.size();
      const Clock::time_point t0 = Clock::now();
      t.ctx->AddRankings(std::move(batch));
      if (time_seed) {
        fold_us.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(size));
        folded_rankings += size;
      }
    }
    for (const std::string& run : spec.warm_runs) {
      t.ctx->RunMethod(Tokens(run).at(2));
    }
    if (name == fold_table) {
      for (const std::vector<Ranking>& fold : folds) {
        std::vector<Ranking> batch = fold;
        const size_t size = batch.size();
        const Clock::time_point t0 = Clock::now();
        t.ctx->AddRankings(std::move(batch));
        fold_us.push_back(SecondsSince(t0) * 1e6 / static_cast<double>(size));
        folded_rankings += size;
      }
    }
    t.a3 = t.ctx->RunMethod("A3").consensus;
    return core.emplace(name, std::move(t)).first->second;
  };
  CoreTable& ft = core_table(fold_table);
  out.Add("core.fold_us_per_ranking", Median(fold_us), "us", folded_rankings);
  for (const char* method : {"A3", "A4"}) {
    std::vector<double> us;
    double spent_s = 0.0;
    while (us.size() < kMethodReps && (us.empty() || spent_s < kMethodBudgetS)) {
      const Clock::time_point t0 = Clock::now();
      ft.ctx->RunMethod(method);
      us.push_back(SecondsSince(t0) * 1e6);
      spent_s += us.back() / 1e6;
    }
    out.AddMedian(std::string("core.") + Lower(method) + "_us", us, "us");
  }
  std::vector<double> eval_us, greedy_us, ilp_us;
  for (size_t i = 0; i < stream.size(); ++i) {
    const Call& c = calls[i];
    if (c.verb == "eval" && eval_us.size() < kMaxCoreCalls) {
      CoreTable& t = core_table(c.table);
      const Clock::time_point t0 = Clock::now();
      t.ctx->EvaluateFairness(c.rankings[0]);
      manirank::KendallTau(c.rankings[0], t.a3);
      eval_us.push_back(SecondsSince(t0) * 1e6);
    } else if (c.verb == "select" &&
               greedy_us.size() + ilp_us.size() < 2 * kMaxCoreCalls) {
      CoreTable& t = core_table(c.table);
      std::vector<manirank::SelectConstraint> constraints;
      for (const SelectConstraintSpec& s : c.query.constraints) {
        constraints.push_back(
            {s.attribute == SelectConstraintSpec::kIntersection
                 ? &t.table->intersection_grouping()
                 : &t.table->attribute_grouping(s.attribute),
             s.group, s.min_count, s.max_count});
      }
      manirank::FairSelectOptions options;
      options.time_limit_seconds =
          c.query.time_limit_seconds > 0 ? c.query.time_limit_seconds : 2.0;
      const Clock::time_point t0 = Clock::now();
      const manirank::FairSelectResult r =
          manirank::FairTopKSelect(t.a3, c.query.k, constraints, options);
      (r.used_ilp ? ilp_us : greedy_us).push_back(SecondsSince(t0) * 1e6);
    }
  }
  out.AddMedian("core.eval_us", eval_us, "us");
  out.AddMedian("core.select_greedy_us", greedy_us, "us");
  out.AddMedian("core.select_ilp_us", ilp_us, "us");
  out.Add("core.select_ilp_frac",
          Ratio(static_cast<double>(load.select_ilp),
                static_cast<double>(load.select_ilp + load.select_greedy)),
          "ratio", load.select_ilp + load.select_greedy);

  // Durability: decorator spans under the manager calls of pass B.
  out.AddMedian("durability.commit_us",
                recorder.Durations("durability.commit", "context_manager."),
                "us");
  out.AddMedian("durability.log_append_us",
                recorder.Durations("durability.log_append", "context_manager."),
                "us");
  out.Add("durability.bytes_per_fold", Ratio(wire.oplog_bytes, wire.oplog_records),
          "bytes", static_cast<size_t>(wire.oplog_records));

  // Replica: the leader's committed records applied on a follower-role
  // twin of the fold table.
  std::vector<double> apply_us;
  if (!fold_records.empty()) {
    ContextManager follower;
    Dispatcher dispatcher(&follower);
    for (const std::string& line : SeedLines(wl.Table(fold_table))) {
      dispatcher.Handle(line);
    }
    follower.SetTableRole(fold_table, manirank::serve::TableRole::kFollower);
    for (OpRecord& record : fold_records) {
      const Clock::time_point t0 = Clock::now();
      follower.ApplyReplicated(fold_table, std::move(record));
      apply_us.push_back(SecondsSince(t0) * 1e6);
    }
  }
  out.AddMedian("replica.apply_us", apply_us, "us");
  out.Add("replica.bytes_per_fold",
          wl.follower ? Ratio(wire.replica_bytes, wire.folds) : 0.0, "bytes",
          static_cast<size_t>(wire.folds));
  out.Add("replica.lag_generations_max",
          static_cast<double>(load.lag_generations_max), "generations",
          load.lag_ms.size());
  out.AddMedian("repl_lag_p50_ms", load.lag_ms, "ms");
  out.Add("repl_lag_p90_ms", Percentile(load.lag_ms, 0.9), "ms",
          load.lag_ms.size());

  // Harness health.
  const double failed = static_cast<double>(load.errors + load.missing +
                                            load.rejected + replay_errors);
  out.Add("failed_frac", Ratio(failed, static_cast<double>(load.attempted)),
          "ratio", load.attempted);
  out.Add("loadgen.late_p99_ms", Percentile(load.late_ms, 0.99), "ms",
          load.late_ms.size());
  out.Add("trace.overhead_frac", Ratio(traced_wall, untraced_wall) - 1.0,
          "ratio", stream.size());
  out.Add("trace.fold_spans_measured", static_cast<double>(fold_spans),
          "count", stream.size());
  out.Add("trace.durability_spans_measured",
          static_cast<double>(durability_spans), "count", stream.size());
  recorder.WriteJsonl(scratch_dir + "/spans.jsonl");
  return out.Take();
}

}  // namespace perfbench
