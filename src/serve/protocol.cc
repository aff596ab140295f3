#include "serve/protocol.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <limits>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "data/csv.h"
#include "data/snapshot.h"
#include "data/synthetic.h"
#include "serve/durability.h"

namespace manirank::serve {
namespace {

using Tokens = std::vector<std::string_view>;

/// Any candidate table a client can register holds at most this many
/// candidates: the first precedence method densifies an n^2 matrix (8
/// bytes per cell, ~200 MB at the cap), so CREATE and RESTORE refuse
/// larger tables up front instead of failing later with bad_alloc or an
/// OOM kill.
constexpr long kMaxCandidates = 5000;

/// strtol over the WHOLE token: leading '\v'/'\f' (whitespace to strtol,
/// token bytes to the tokenizer), an optional sign, decimal digits,
/// nothing after, and no ERANGE. The copy supplies strtol's terminating
/// NUL; strtol must consume every byte of the token, so an embedded NUL
/// ("5<NUL>junk") is rejected rather than read as its prefix.
std::optional<long> ParseLong(std::string_view view) {
  const std::string token(view);
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || end != token.c_str() + token.size() ||
      errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

std::optional<double> ParseDouble(std::string_view view) {
  const std::string token(view);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || end != token.c_str() + token.size() ||
      errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

/// A candidate id: ParseLong's grammar, then 0 <= id <= CandidateId max
/// (checked before the cast — a wider id would truncate and alias a valid
/// candidate). Plain digits with an optional '-' — every id a client
/// normally sends — take the allocation-free from_chars path, which
/// accepts exactly what strtol accepts for such tokens; anything else
/// ('+5', a leading '\v', out-of-range digits) falls back to ParseLong.
std::optional<CandidateId> ParseCandidateId(std::string_view token) {
  CandidateId id = 0;
  const char* last = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), last, id);
  if (ec == std::errc() && end == last) {
    if (id < 0) return std::nullopt;
    return id;
  }
  const auto v = ParseLong(token);
  if (!v || *v < 0 || *v > std::numeric_limits<CandidateId>::max()) {
    return std::nullopt;
  }
  return static_cast<CandidateId>(*v);
}

std::string Err(const char* code, const std::string& detail) {
  return std::string("ERR ") + code + ": " + detail;
}

std::string BadCandidate(std::string_view token) {
  return Err("bad-ranking", "candidate id must be a non-negative integer, got '" +
                                std::string(token) + "'");
}

/// Appends an integer in its shortest decimal form — the same bytes an
/// ostream in the classic locale writes.
template <typename Int>
void AppendInt(std::string* out, Int value) {
  char buf[24];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out->append(buf, end);
}

/// Appends "c0,c1,...".
void AppendIdList(std::string* out, const std::vector<CandidateId>& ids) {
  char buf[16];
  for (size_t i = 0; i < ids.size(); ++i) {
    char* p = buf;
    if (i != 0) *p++ = ',';
    p = std::to_chars(p, buf + sizeof(buf), ids[i]).ptr;
    out->append(buf, p);
  }
}

/// Appends one method result as " <id> sat=<0|1> consensus=<c0,c1,...>".
void AppendMethodResult(std::string* response, const std::string& id,
                        const ConsensusOutput& out) {
  response->append(" ").append(id);
  response->append(out.satisfied ? " sat=1 consensus=" : " sat=0 consensus=");
  AppendIdList(response, out.consensus.order());
}

std::string HandleCreate(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "CREATE <table> FILE <csv> | CYCLIC <n> <d0> <d1>");
  }
  const std::string table_name(tokens[1]);
  const std::string_view kind = tokens[2];
  std::optional<CandidateTable> table;
  std::vector<Ranking> initial;
  if (kind == "CYCLIC") {
    if (tokens.size() != 6) {
      return Err("bad-request", "CREATE <table> CYCLIC <n> <d0> <d1>");
    }
    const auto n = ParseLong(tokens[3]);
    const auto d0 = ParseLong(tokens[4]);
    const auto d1 = ParseLong(tokens[5]);
    if (!n || !d0 || !d1 || *n < 1 || *d0 < 1 || *d1 < 1) {
      return Err("bad-request", "CYCLIC arguments must be positive integers");
    }
    // Bound before the int casts, so nothing truncates either.
    if (*n > kMaxCandidates || *d0 > 64 || *d1 > 64) {
      return Err("bad-request", "CYCLIC size out of range (n <= " +
                                    std::to_string(kMaxCandidates) +
                                    ", domains <= 64)");
    }
    table = MakeCyclicTable(static_cast<int>(*n), static_cast<int>(*d0),
                            static_cast<int>(*d1));
  } else if (kind == "FILE") {
    if (tokens.size() != 4 &&
        !(tokens.size() == 6 && tokens[4] == "RANKINGS")) {
      return Err("bad-request",
                 "CREATE <table> FILE <csv> [RANKINGS <csv>]");
    }
    const std::string table_path(tokens[3]);
    std::ifstream table_file(table_path);
    if (!table_file) return Err("io", "cannot open table file: " + table_path);
    try {
      table = ReadCandidateTableCsv(table_file);
    } catch (const std::exception& e) {
      return Err("io", "table csv: " + std::string(e.what()));
    }
    if (table->num_candidates() > kMaxCandidates) {
      return Err("bad-request", "FILE size out of range (n <= " +
                                    std::to_string(kMaxCandidates) + ", got " +
                                    std::to_string(table->num_candidates()) +
                                    ")");
    }
    if (tokens.size() == 6) {
      const std::string rankings_path(tokens[5]);
      std::ifstream rankings_file(rankings_path);
      if (!rankings_file) {
        return Err("io", "cannot open rankings file: " + rankings_path);
      }
      try {
        initial = ReadRankingsCsv(rankings_file);
      } catch (const std::exception& e) {
        return Err("io", "rankings csv: " + std::string(e.what()));
      }
    }
  } else {
    return Err("bad-request", "CREATE source must be FILE or CYCLIC, got '" +
                                  std::string(kind) + "'");
  }
  const int n = table->num_candidates();
  const size_t m = initial.size();
  manager->Create(table_name, std::move(*table), std::move(initial));
  std::ostringstream os;
  os << "OK CREATE " << table_name << " candidates=" << n
     << " rankings=" << m;
  return os.str();
}

/// APPEND and EVAL read their id payload straight off the tokenizer into
/// the order vector they build — no token vector, no per-token copy.
std::string HandleAppend(ContextManager* manager, LineTokenizer* cursor) {
  const std::string table(cursor->Next());
  std::string_view token = cursor->Next();
  if (token.empty()) {
    return Err("bad-request", "APPEND <table> <c0> <c1> ... [; ...]");
  }
  std::vector<Ranking> batch;
  std::vector<CandidateId> order;
  for (;; token = cursor->Next()) {
    if (token.empty() || token == ";") {
      if (order.empty()) {
        return Err("bad-ranking", "empty ranking in APPEND payload");
      }
      if (!Ranking::IsValidOrder(order)) {
        return Err("bad-ranking",
                   "APPEND payload is not a permutation of 0..n-1");
      }
      const size_t width = order.size();
      batch.emplace_back(std::move(order));
      if (token.empty()) break;
      order = {};
      order.reserve(width);
      continue;
    }
    const auto c = ParseCandidateId(token);
    if (!c) return BadCandidate(token);
    order.push_back(*c);
  }
  const size_t queued = batch.size();
  const TableStats stats = manager->Append(table, std::move(batch));
  std::string response = "OK APPEND " + table + " queued=";
  AppendInt(&response, queued);
  response += " pending_ops=";
  AppendInt(&response, stats.pending_ops);
  response += " pending_rankings=";
  AppendInt(&response, stats.pending_rankings);
  return response;
}

std::string HandleEval(ContextManager* manager, LineTokenizer* cursor) {
  const std::string table(cursor->Next());
  std::vector<CandidateId> order;
  for (std::string_view token = cursor->Next(); !token.empty();
       token = cursor->Next()) {
    const auto c = ParseCandidateId(token);
    if (!c) return BadCandidate(token);
    order.push_back(*c);
  }
  if (order.empty()) return Err("bad-request", "EVAL <table> <c0> <c1> ...");
  if (!Ranking::IsValidOrder(order)) {
    return Err("bad-ranking", "EVAL payload is not a permutation of 0..n-1");
  }
  const EvalResult result = manager->Eval(table, Ranking(std::move(order)));
  std::ostringstream os;
  os << "OK EVAL " << table << " gen=" << result.generation
     << " method=" << result.method << " tau=" << result.tau
     << " ntau=" << result.normalized_tau << " parity=";
  for (size_t i = 0; i < result.fairness.parity.size(); ++i) {
    if (i != 0) os << ',';
    os << result.fairness.parity[i];
  }
  os << " max_parity=" << result.fairness.MaxParity();
  // Per-group FPR for every constrained grouping, grouping-major (','
  // within a grouping, ';' between) — the order matches parity=: one
  // attribute per entry, intersection last when q > 1.
  os << " fpr=";
  for (size_t g = 0; g < result.fairness.fpr.size(); ++g) {
    if (g != 0) os << ';';
    const std::vector<double>& rates = result.fairness.fpr[g];
    for (size_t i = 0; i < rates.size(); ++i) {
      if (i != 0) os << ',';
      os << rates[i];
    }
  }
  // Intersectional extremes: most and least favored group of the LAST
  // constrained grouping (the intersection when the table has several
  // attributes, the sole attribute otherwise), as <group-index>:<fpr>.
  if (!result.fairness.fpr.empty() && !result.fairness.fpr.back().empty()) {
    const std::vector<double>& inter = result.fairness.fpr.back();
    size_t max_g = 0;
    size_t min_g = 0;
    for (size_t i = 1; i < inter.size(); ++i) {
      if (inter[i] > inter[max_g]) max_g = i;
      if (inter[i] < inter[min_g]) min_g = i;
    }
    os << " ifpr_max=" << max_g << ':' << inter[max_g]
       << " ifpr_min=" << min_g << ':' << inter[min_g];
  }
  return os.str();
}

std::string HandleSelect(ContextManager* manager, const Tokens& tokens) {
  static constexpr char kUsage[] =
      "SELECT <table> <k> [ATTR <a> <g> <min> <max>]* [INTER <g> <min> "
      "<max>]* [LIMIT <s>]";
  if (tokens.size() < 3) return Err("bad-request", kUsage);
  // Every numeric field is bound-checked before its int cast, like
  // APPEND's candidate ids: an id beyond int would otherwise truncate.
  const auto parse_int = [](std::string_view token) -> std::optional<int> {
    const auto v = ParseLong(token);
    if (!v || *v < 0 || *v > std::numeric_limits<int>::max()) {
      return std::nullopt;
    }
    return static_cast<int>(*v);
  };
  const auto k = parse_int(tokens[2]);
  if (!k || *k < 1) {
    return Err("bad-request", "SELECT k must be a positive integer, got '" +
                                  std::string(tokens[2]) + "'");
  }
  SelectQuery query;
  query.k = *k;
  size_t i = 3;
  while (i < tokens.size()) {
    const std::string clause(tokens[i]);
    if (clause == "ATTR" || clause == "INTER") {
      const size_t arity = clause == "ATTR" ? 4 : 3;
      if (i + arity + 1 > tokens.size()) {
        return Err("bad-request",
                   clause == "ATTR" ? "ATTR needs <a> <g> <min> <max>"
                                    : "INTER needs <g> <min> <max>");
      }
      SelectConstraintSpec spec;
      size_t j = i + 1;
      if (clause == "ATTR") {
        const auto a = parse_int(tokens[j++]);
        if (!a) {
          return Err("bad-request",
                     "ATTR attribute index must be a non-negative integer, "
                     "got '" +
                         std::string(tokens[j - 1]) + "'");
        }
        spec.attribute = *a;
      } else {
        spec.attribute = SelectConstraintSpec::kIntersection;
      }
      const auto group = parse_int(tokens[j++]);
      const auto min_count = parse_int(tokens[j++]);
      const auto max_count = parse_int(tokens[j++]);
      if (!group || !min_count || !max_count) {
        return Err("bad-request",
                   clause + " group/min/max must be non-negative integers");
      }
      spec.group = *group;
      spec.min_count = *min_count;
      spec.max_count = *max_count;
      query.constraints.push_back(spec);
      i = j;
    } else if (clause == "LIMIT") {
      if (i + 1 >= tokens.size()) {
        return Err("bad-request", "LIMIT needs a value in seconds");
      }
      const auto seconds = ParseDouble(tokens[i + 1]);
      // `> 0` also rejects NaN.
      if (!seconds || !(*seconds > 0)) {
        return Err("bad-request", "LIMIT needs a positive number, got '" +
                                      std::string(tokens[i + 1]) + "'");
      }
      query.time_limit_seconds = *seconds;
      i += 2;
    } else {
      return Err("bad-request", "bad SELECT clause '" + clause + "'; " +
                                    kUsage);
    }
  }
  const std::string table(tokens[1]);
  const SelectOutcome outcome = manager->Select(table, query);
  if (!outcome.feasible) {
    // A well-formed query whose constraints admit no size-k slate: a
    // distinct code (the computation succeeded — only the answer is
    // "no such slate"). Deterministic detail so cached and cold
    // infeasible responses stay byte-identical.
    return Err("infeasible", "no feasible slate of size " +
                                 std::to_string(query.k) +
                                 " under the given constraints");
  }
  std::ostringstream os;
  os << "OK SELECT " << table << " gen=" << outcome.generation
     << " k=" << query.k << " method=" << outcome.method
     << " algo=" << (outcome.used_ilp ? "ilp" : "greedy")
     << " optimal=" << (outcome.optimal ? 1 : 0) << " cost=" << outcome.cost
     << " air=";
  for (size_t g = 0; g < outcome.air.size(); ++g) {
    if (g != 0) os << ';';
    os << outcome.air[g];
  }
  os << " four_fifths=" << (outcome.four_fifths ? 1 : 0) << " selected=";
  std::string response = os.str();
  response.reserve(response.size() + 11 * outcome.selected.size());
  AppendIdList(&response, outcome.selected);
  return response;
}

std::string HandleRun(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() < 3) {
    return Err("bad-request", "RUN <table> <method|all> [DELTA <d>] [LIMIT <s>]");
  }
  ConsensusOptions options;
  options.time_limit_seconds = 30.0;
  for (size_t i = 3; i < tokens.size(); i += 2) {
    if (i + 1 >= tokens.size()) {
      return Err("bad-request",
                 "RUN option " + std::string(tokens[i]) + " needs a value");
    }
    const auto value = ParseDouble(tokens[i + 1]);
    // `>= 0` also rejects NaN for both options.
    if (tokens[i] == "DELTA" && value && *value >= 0) {
      options.delta = *value;
    } else if (tokens[i] == "LIMIT" && value && *value >= 0) {
      options.time_limit_seconds = *value;
    } else {
      return Err("bad-request",
                 "bad RUN option: " + std::string(tokens[i]) + " " +
                     std::string(tokens[i + 1]));
    }
  }
  const std::string table(tokens[1]);
  const std::string_view method = tokens[2];
  uint64_t generation = 0;
  std::vector<std::pair<const MethodSpec*, ConsensusOutput>> results;
  if (method == "all") {
    // One shared-gate hold for the whole sweep (retained tables serve all
    // eight methods, restored ones the precedence/Borda subset), so the
    // reported gen= holds for every result on the line — a concurrent
    // mutation wave cannot land between two methods of one response.
    results = manager->RunSupported(table, options, &generation);
  } else {
    ConsensusOutput output = manager->Run(table, method, options, &generation);
    results.emplace_back(FindMethod(method), std::move(output));
  }
  // One reserved string: an id takes at most 11 bytes with its comma, and
  // the response head and each " <id> sat=<s> consensus=" under 32.
  size_t bytes = 32 + table.size();
  for (const auto& result : results) {
    bytes += 32 + 11 * result.second.consensus.order().size();
  }
  std::string response;
  response.reserve(bytes);
  response.append("OK RUN ").append(table).append(" gen=");
  AppendInt(&response, generation);
  for (const auto& [spec, output] : results) {
    AppendMethodResult(&response, spec->id, output);
  }
  return response;
}

std::string HandleSnapshot(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() != 3 && !(tokens.size() == 4 && tokens[3] == "EXACT")) {
    return Err("bad-request", "SNAPSHOT <table> <path> [EXACT]");
  }
  const bool exact = tokens.size() == 4;
  const std::string table(tokens[1]);
  const std::string path(tokens[2]);
  // Probe the write target BEFORE draining: the common failure — an
  // unwritable path — must reject with zero state change, keeping the
  // ERR-implies-untouched contract. Only a failure of the stream itself
  // (e.g. disk full mid-write) can still follow the drain; the completed
  // drain then stands, exactly as a FLUSH would.
  if (!ProbeSnapshotWritable(path)) {
    return Err("io", "cannot open snapshot for writing: " + path);
  }
  const TableSnapshot snapshot = manager->SnapshotTable(
      table, exact ? SnapshotMode::kExact : SnapshotMode::kSummarized);
  try {
    WriteTableSnapshotFile(path, snapshot);
  } catch (const std::runtime_error& e) {
    return Err("io", e.what());
  }
  std::ostringstream os;
  os << "OK SNAPSHOT " << table
     << " rankings=" << snapshot.summary.num_rankings
     << " generation=" << snapshot.summary.generation
     << " precedence=" << (snapshot.summary.precedence != nullptr ? 1 : 0);
  if (exact) os << " exact=1";
  os << " path=" << path;
  return os.str();
}

std::string HandleSnapshotPolicy(ContextManager* manager,
                                 DurabilityManager* durability,
                                 const Tokens& tokens) {
  static constexpr char kUsage[] =
      "SNAPSHOT-POLICY <table> GENERATIONS <n> | SECONDS <s> | OFF";
  if (tokens.size() < 3) return Err("bad-request", kUsage);
  if (durability == nullptr) {
    return Err("unavailable",
               "SNAPSHOT-POLICY requires the --log-dir durability layer");
  }
  const std::string table(tokens[1]);
  const std::string_view mode = tokens[2];
  DurabilityManager::Policy policy;
  if (mode == "OFF") {
    if (tokens.size() != 3) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> OFF");
    }
  } else if (mode == "GENERATIONS") {
    if (tokens.size() != 4) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> GENERATIONS <n>");
    }
    const auto n = ParseLong(tokens[3]);
    if (!n || *n < 1) {
      return Err("bad-request",
                 "GENERATIONS needs a positive integer, got '" +
                     std::string(tokens[3]) + "'");
    }
    policy.kind = DurabilityManager::Policy::Kind::kGenerations;
    policy.every_generations = static_cast<uint64_t>(*n);
  } else if (mode == "SECONDS") {
    if (tokens.size() != 4) {
      return Err("bad-request", "SNAPSHOT-POLICY <table> SECONDS <s>");
    }
    const auto s = ParseDouble(tokens[3]);
    // `> 0` also rejects NaN.
    if (!s || !(*s > 0)) {
      return Err("bad-request",
                 "SECONDS needs a positive number, got '" +
                     std::string(tokens[3]) + "'");
    }
    policy.kind = DurabilityManager::Policy::Kind::kSeconds;
    policy.every_seconds = *s;
  } else {
    return Err("bad-request", kUsage);
  }
  if (!manager->Has(table)) {
    return Err("no-such-table", "no such table: " + table);
  }
  durability->SetPolicy(table, policy);
  std::ostringstream os;
  os << "OK SNAPSHOT-POLICY " << table << ' ' << mode;
  if (tokens.size() == 4) os << ' ' << tokens[3];
  return os.str();
}

std::string HandleRestore(ContextManager* manager, const Tokens& tokens) {
  if (tokens.size() != 3) {
    return Err("bad-request", "RESTORE <table> <path>");
  }
  std::optional<TableSnapshot> snapshot;
  try {
    snapshot.emplace(ReadTableSnapshotFile(std::string(tokens[2])));
  } catch (const SnapshotFormatError& e) {
    // Corrupt / truncated / version-mismatched file: distinct code, and
    // nothing was registered — the manager state is untouched.
    return Err("bad-snapshot", e.what());
  } catch (const std::runtime_error& e) {
    return Err("io", e.what());
  }
  if (snapshot->table.num_candidates() > kMaxCandidates) {
    return Err("bad-request", "RESTORE size out of range (n <= " +
                                  std::to_string(kMaxCandidates) + ", got " +
                                  std::to_string(
                                      snapshot->table.num_candidates()) +
                                  ")");
  }
  const std::string table(tokens[1]);
  const TableStats stats = manager->RestoreTable(table, std::move(*snapshot));
  std::ostringstream os;
  os << "OK RESTORE " << table << " candidates=" << stats.num_candidates
     << " rankings=" << stats.num_rankings
     << " generation=" << stats.generation;
  return os.str();
}

}  // namespace

std::string Dispatcher::Handle(const std::string& line) {
  std::string response = HandleRequest(line);
  // Single-threaded front ends (stdin, script replay) have no event loop
  // to run the snapshot-policy timer, so they piggyback it on request
  // handling: any due policy fires between requests — which is also the
  // only instant the response stream is quiet. The executor front end passes inline_policy_eval=false and
  // drives RunDuePolicies from its loops instead.
  if (durability_ != nullptr && inline_policy_eval_ && !response.empty()) {
    durability_->RunDuePolicies();
  }
  return response;
}

std::string Dispatcher::HandleRequest(const std::string& line) {
  LineTokenizer cursor(line);
  const std::string_view verb = cursor.Next();
  if (verb.empty() || verb[0] == '#') return "";
  try {
    if (verb == "APPEND") return HandleAppend(manager_, &cursor);
    if (verb == "EVAL") return HandleEval(manager_, &cursor);
    // Every other verb takes a handful of tokens.
    Tokens tokens = {verb};
    for (std::string_view token = cursor.Next(); !token.empty();
         token = cursor.Next()) {
      tokens.push_back(token);
    }
    // Addressed table (an arity check guards every use).
    const std::string table(tokens.size() > 1 ? tokens[1] : "");
    if (verb == "CREATE") return HandleCreate(manager_, tokens);
    if (verb == "RUN") return HandleRun(manager_, tokens);
    if (verb == "SELECT") return HandleSelect(manager_, tokens);
    if (verb == "REPLICATE") {
      // The executor intercepts REPLICATE before dispatch; reaching this
      // handler means the front end cannot switch the connection into a
      // binary stream (stdin, script replay). Validate anyway so every
      // front end agrees on the failure modes.
      if (tokens.size() != 2) return Err("bad-request", "REPLICATE <table>");
      if (!manager_->Has(table)) {
        return Err("no-such-table", "no such table: " + table);
      }
      if (durability_ == nullptr) {
        return Err("unavailable",
                   "REPLICATE requires the --log-dir durability layer");
      }
      return Err("unavailable",
                 "REPLICATE requires a streaming socket front end");
    }
    if (verb == "SNAPSHOT") return HandleSnapshot(manager_, tokens);
    if (verb == "SNAPSHOT-POLICY") {
      return HandleSnapshotPolicy(manager_, durability_, tokens);
    }
    if (verb == "RESTORE") return HandleRestore(manager_, tokens);
    if (verb == "REMOVE") {
      if (tokens.size() != 3) {
        return Err("bad-request", "REMOVE <table> <index>");
      }
      const auto index = ParseLong(tokens[2]);
      if (!index || *index < 0) {
        return Err("bad-index",
                   "REMOVE index must be a non-negative integer, got '" +
                       std::string(tokens[2]) + "'");
      }
      const TableStats stats =
          manager_->Remove(table, static_cast<size_t>(*index));
      std::ostringstream os;
      os << "OK REMOVE " << table << " index=" << *index
         << " pending_ops=" << stats.pending_ops;
      return os.str();
    }
    if (verb == "STATS") {
      if (tokens.size() != 2) return Err("bad-request", "STATS <table>");
      const TableStats stats = manager_->Stats(table);
      std::ostringstream os;
      os << "OK STATS " << table << " candidates=" << stats.num_candidates
         << " rankings=" << stats.num_rankings
         << " generation=" << stats.generation
         << " pending_ops=" << stats.pending_ops
         << " pending_rankings=" << stats.pending_rankings
         << " applied_batches=" << stats.applied_batches
         << " applied_rankings=" << stats.applied_rankings
         << " runs=" << stats.runs
         << " dropped_removes=" << stats.dropped_removes
         << " summarized=" << (stats.summarized ? 1 : 0)
         << " cache_hits=" << stats.cache_hits
         << " cache_misses=" << stats.cache_misses
         << " cache_entries=" << stats.cache_entries;
      if (stats.role == TableRole::kFollower) {
        // Trailing and follower-only: leader STATS output is unchanged
        // byte-for-byte, which the replication equivalence checks (and
        // older clients) rely on.
        os << " role=follower"
           << " replica_lag_generations=" << stats.replica_lag_generations
           << " replica_bytes_streamed=" << stats.replica_bytes_streamed
           << " replica_connected=" << (stats.replica_connected ? 1 : 0);
      }
      if (durability_ != nullptr) {
        const auto d = durability_->StatsFor(table);
        if (d.has_value()) {
          os << " oplog_records=" << d->log_records
             << " oplog_bytes=" << d->log_bytes
             << " oplog_truncations=" << d->truncations
             << " oplog_replayed=" << d->replayed_records
             << " oplog_replay_ms=" << d->replay_ms
             << " oplog_healthy=" << (d->healthy ? 1 : 0);
        }
      }
      return os.str();
    }
    if (verb == "FLUSH") {
      if (tokens.size() != 2) return Err("bad-request", "FLUSH <table>");
      const size_t applied = manager_->Flush(table);
      std::ostringstream os;
      os << "OK FLUSH " << table << " applied=" << applied;
      return os.str();
    }
    if (verb == "DROP") {
      if (tokens.size() != 2) return Err("bad-request", "DROP <table>");
      manager_->Drop(table);
      return "OK DROP " + table;
    }
    if (verb == "TABLES") {
      if (tokens.size() != 1) return Err("bad-request", "TABLES");
      std::ostringstream os;
      const std::vector<std::string> names = manager_->TableNames();
      os << "OK TABLES " << names.size();
      for (const std::string& name : names) os << ' ' << name;
      return os.str();
    }
    if (verb == "METRICS") {
      if (tokens.size() != 1) return Err("bad-request", "METRICS");
      if (!metrics_provider_) {
        return Err("unavailable",
                   "METRICS requires the async executor front end");
      }
      return metrics_provider_();
    }
    return Err("unknown-verb", std::string(verb));
  } catch (const std::out_of_range& e) {
    return Err("bad-index", e.what());
  } catch (const ReadOnlyTableError& e) {
    // Before the logic_error catch (its base): a mutation on a follower
    // table is its own protocol condition, not a generic conflict — the
    // client should redirect the write to the leader.
    return Err("readonly", e.what());
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    if (what.rfind("no such table", 0) == 0) {
      return Err("no-such-table", what);
    }
    if (what.rfind("table already exists", 0) == 0) {
      // Distinct from bad-request so clients can treat a duplicate
      // CREATE/RESTORE as an idempotent-retry success.
      return Err("table-exists", what);
    }
    if (what.rfind("unknown consensus method", 0) == 0) {
      return Err("unknown-method", what);
    }
    if (what.find("empty profile") != std::string::npos) {
      return Err("empty-table", what);
    }
    if (what.find("ranking") != std::string::npos) {
      return Err("bad-ranking", what);
    }
    return Err("bad-request", what);
  } catch (const std::logic_error& e) {
    return Err("conflict", e.what());
  } catch (const std::runtime_error& e) {
    // File-system and durability failures surfacing through a serving
    // verb (snapshot write, op-log truncation, replay) are I/O trouble,
    // not a malformed request — a client retrying verbatim may well
    // succeed once the disk recovers. Before this branch existed they
    // fell through to bad-request and misdirected the retry logic.
    return Err("io", e.what());
  } catch (const std::exception& e) {
    return Err("bad-request", e.what());
  }
}

int Dispatcher::ServeStream(std::istream& in, std::ostream& out, bool echo) {
  int errors = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (echo) out << "> " << line << '\n';
    const std::string response = Handle(line);
    if (response.empty()) continue;
    out << response << '\n';
    out.flush();
    // The sink died (reader closed the pipe; the write surfaced as a
    // stream failure rather than SIGPIPE death). Every further response
    // would be dropped on the floor — stop executing requests instead of
    // mutating tables on behalf of a client that can no longer see the
    // results. The caller reports the I/O failure from the stream state.
    if (!out) break;
    if (response.rfind("ERR", 0) == 0) ++errors;
  }
  return errors;
}

RequestClass ClassifyRequest(const std::string& line) {
  // Only the first two tokens matter, and an APPEND payload can be
  // megabytes: read just those (Handle tokenizes the line again anyway).
  LineTokenizer cursor(line);
  const std::string_view verb = cursor.Next();
  RequestClass cls;
  if (verb.empty() || verb[0] == '#') {
    cls.no_response = true;
    return cls;
  }
  cls.replicate = verb == "REPLICATE";
  const bool per_table = verb == "APPEND" || verb == "REMOVE" ||
                         verb == "RUN" || verb == "STATS" ||
                         verb == "FLUSH" || verb == "EVAL" ||
                         verb == "SELECT";
  const std::string_view table = per_table ? cursor.Next() : "";
  if (!table.empty()) {
    cls.table = std::string(table);
    cls.draining = verb == "RUN" || verb == "FLUSH";
    cls.compute = verb == "EVAL" || verb == "SELECT";
  } else {
    // Namespace verbs (CREATE / RESTORE / DROP / TABLES), unknown verbs,
    // and malformed per-table requests (no table token) all serialize
    // against the whole connection — correctness beats overlap for the
    // rare requests that touch the table namespace or will only ERR.
    // SNAPSHOT is a barrier too: its destination PATH is a second
    // shared resource the table key cannot order (two snapshots of
    // different tables to one path must not interleave their writes).
    cls.barrier = true;
  }
  return cls;
}

}  // namespace manirank::serve
