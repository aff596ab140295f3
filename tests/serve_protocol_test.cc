// Protocol robustness tests: every malformed request must draw an
// "ERR <code>:" response and leave the addressed table's applied state
// unchanged — verified through the STATS generation counter, which only
// moves when mutations are actually folded into a context. Includes a
// deterministic fuzz-ish sweep of mutated request lines.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/ranking.h"
#include "test_util.h"
#include "data/op_log.h"
#include "data/snapshot.h"
#include "serve/context_manager.h"
#include "util/rng.h"

namespace manirank {
namespace {

using serve::ContextManager;
using serve::Dispatcher;


/// Fixture with one live table and helpers to assert state invariance.
class ProtocolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<Dispatcher>(&manager_);
    ASSERT_EQ(Handle("CREATE t CYCLIC 6 2 3"), "OK CREATE t candidates=6 rankings=0");
    ASSERT_TRUE(IsOk(Handle("APPEND t 0 1 2 3 4 5 ; 5 4 3 2 1 0")));
    ASSERT_TRUE(IsOk(Handle("FLUSH t")));
  }

  std::string Handle(const std::string& line) {
    return dispatcher_->Handle(line);
  }
  static bool IsOk(const std::string& r) { return r.rfind("OK", 0) == 0; }
  static bool IsErr(const std::string& r) { return r.rfind("ERR ", 0) == 0; }

  /// "generation=<g> ... pending_ops=<o>" snapshot of table t. If the
  /// table has been dropped (fuzzing can legitimately issue DROP t), the
  /// stable "ERR no-such-table" response doubles as the snapshot.
  std::string StateSnapshot() { return Handle("STATS t"); }

  /// Asserts that every consensus= list of an "OK RUN <table> ..."
  /// response is a permutation of 0..n-1, n being the table's candidate
  /// count (read with STATS, which changes nothing). Returns the number of
  /// lists checked.
  int ExpectConsensusPermutations(const std::string& response) {
    std::istringstream fields(response);
    std::string ok, verb, table;
    fields >> ok >> verb >> table;
    const std::string stats = Handle("STATS " + table);
    const size_t at = stats.find(" candidates=");
    EXPECT_NE(at, std::string::npos) << stats;
    if (at == std::string::npos) return 0;
    const int n = std::atoi(stats.c_str() + at + 12);
    int lists = 0;
    for (std::string field; fields >> field;) {
      if (field.rfind("consensus=", 0) != 0) continue;
      std::vector<CandidateId> order;
      std::istringstream ids(field.substr(10));
      for (std::string id; std::getline(ids, id, ',');) {
        order.push_back(std::stoi(id));
      }
      EXPECT_TRUE(testing::IsPermutationOfRange(order, n))
          << "'" << response << "' is not a permutation of 0.." << n - 1;
      ++lists;
    }
    EXPECT_GT(lists, 0) << response;
    return lists;
  }

  ContextManager manager_;
  std::unique_ptr<Dispatcher> dispatcher_;
};

TEST_F(ProtocolTest, BlankAndCommentLinesDrawNoResponse) {
  EXPECT_EQ(Handle(""), "");
  EXPECT_EQ(Handle("   \t  "), "");
  EXPECT_EQ(Handle("# a comment"), "");
  EXPECT_EQ(Handle("#APPEND t 0 1 2 3 4 5"), "");
}

TEST_F(ProtocolTest, MalformedRequestsErrAndLeaveStateUnchanged) {
  const std::string before = StateSnapshot();
  const std::vector<std::pair<std::string, std::string>> cases = {
      // unknown verb
      {"FROB t", "ERR unknown-verb"},
      {"append t 0 1 2 3 4 5", "ERR unknown-verb"},  // verbs are upper-case
      {"OK", "ERR unknown-verb"},
      // missing / unknown table
      {"RUN ghost A4", "ERR no-such-table"},
      {"STATS ghost", "ERR no-such-table"},
      {"APPEND ghost 0 1 2 3 4 5", "ERR no-such-table"},
      {"REMOVE ghost 0", "ERR no-such-table"},
      {"FLUSH ghost", "ERR no-such-table"},
      {"DROP ghost", "ERR no-such-table"},
      // arity errors
      {"RUN", "ERR bad-request"},
      {"RUN t", "ERR bad-request"},
      {"APPEND t", "ERR bad-request"},
      {"REMOVE t", "ERR bad-request"},
      {"REMOVE t 0 0", "ERR bad-request"},
      {"STATS", "ERR bad-request"},
      {"TABLES t", "ERR bad-request"},
      {"CREATE t2", "ERR bad-request"},
      {"CREATE t2 SYNTH 6", "ERR bad-request"},
      {"CREATE t2 CYCLIC 6 2", "ERR bad-request"},
      {"CREATE t2 CYCLIC x 2 2", "ERR bad-request"},
      {"CREATE t2 CYCLIC -6 2 2", "ERR bad-request"},
      // duplicate table: a distinct code, so clients can retry CREATE
      // idempotently without parsing the detail text
      {"CREATE t CYCLIC 6 2 2", "ERR table-exists"},
      // bad ranking payloads
      {"APPEND t 0 1 2", "ERR bad-ranking"},               // wrong size
      {"APPEND t 0 1 2 3 4 9", "ERR bad-ranking"},         // out of domain
      {"APPEND t 0 1 2 3 4 4", "ERR bad-ranking"},         // duplicate
      {"APPEND t 0 1 2 3 4 x", "ERR bad-ranking"},         // non-numeric
      {"APPEND t 0 1 2 3 4 -5", "ERR bad-ranking"},        // negative
      // beyond int32: must NOT truncate into a valid candidate id
      {"APPEND t 4294967296 1 2 3 4 5", "ERR bad-ranking"},
      // would truncate n through the int cast (and OOM if honoured)
      {"CREATE big CYCLIC 4294967297 2 2", "ERR bad-request"},
      {"APPEND t 0 1 2 3 4 5 ;", "ERR bad-ranking"},       // empty 2nd ranking
      {"APPEND t ; 0 1 2 3 4 5", "ERR bad-ranking"},       // empty 1st ranking
      {"APPEND t 0 1 2 3 4 5 ; 0 1 2", "ERR bad-ranking"},  // ragged batch
      // bad indices
      {"REMOVE t 2", "ERR bad-index"},    // profile holds 2 → valid: 0, 1
      {"REMOVE t 99", "ERR bad-index"},
      {"REMOVE t -1", "ERR bad-index"},
      {"REMOVE t 1.5", "ERR bad-index"},
      // bad RUN arguments
      {"RUN t Z9", "ERR unknown-method"},
      {"RUN t A4 DELTA", "ERR bad-request"},
      {"RUN t A4 DELTA x", "ERR bad-request"},
      {"RUN t A4 LIMIT -3", "ERR bad-request"},
      {"RUN t A4 WIBBLE 3", "ERR bad-request"},
      // I/O errors
      {"CREATE t3 FILE /no/such/file.csv", "ERR io"},
      // snapshot verbs: arity, unknown tables, unreadable files
      {"SNAPSHOT t", "ERR bad-request"},
      {"SNAPSHOT t a b", "ERR bad-request"},
      {"SNAPSHOT ghost /tmp/x.snap", "ERR no-such-table"},
      {"RESTORE t4", "ERR bad-request"},
      {"RESTORE t4 /no/such/file.snap", "ERR io"},
  };
  for (const auto& [request, expected_prefix] : cases) {
    const std::string response = Handle(request);
    EXPECT_EQ(response.rfind(expected_prefix, 0), 0u)
        << "request '" << request << "' drew '" << response << "'";
    EXPECT_EQ(StateSnapshot(), before)
        << "request '" << request << "' changed table state";
  }
  // And the table still serves correctly after the abuse.
  EXPECT_TRUE(IsOk(Handle("RUN t A4")));
}

TEST_F(ProtocolTest, CreateFileRefusesTablesOverTheCandidateCap) {
  // CREATE..FILE shares CYCLIC's n <= 5000 cap: the first precedence
  // method would otherwise densify an 8 n^2-byte matrix, failing as a
  // bad_alloc or an OOM kill instead of a refusal up front.
  const std::string dir = ::testing::TempDir() + "manirank_create_cap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write_table = [&](int n) {
    const std::string path = dir + "/t" + std::to_string(n) + ".csv";
    std::ofstream csv(path);
    csv << "candidate,G\n";
    for (int c = 0; c < n; ++c) csv << c << ',' << (c % 2 ? 'a' : 'b') << '\n';
    return path;
  };
  const std::string tables = Handle("TABLES");
  EXPECT_EQ(Handle("CREATE big FILE " + write_table(5001)),
            "ERR bad-request: FILE size out of range (n <= 5000, got 5001)");
  EXPECT_EQ(Handle("CREATE big FILE " + write_table(5001) + " RANKINGS " +
                   dir + "/none.csv"),
            "ERR bad-request: FILE size out of range (n <= 5000, got 5001)");
  EXPECT_EQ(Handle("TABLES"), tables);
  // The cap is inclusive, like CYCLIC's.
  EXPECT_EQ(Handle("CREATE edge FILE " + write_table(5000)),
            "OK CREATE edge candidates=5000 rankings=0");
  std::filesystem::remove_all(dir);
}

TEST_F(ProtocolTest, RestoreRefusesSnapshotsOverTheCandidateCap) {
  // RESTORE shares CREATE's n <= 5000 cap, checked after decoding and
  // before the table is registered. An empty exact snapshot carries no
  // precedence matrix, so even n = 5001 is cheap to write.
  const std::string dir = ::testing::TempDir() + "manirank_restore_cap";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const auto write_snapshot = [&](int n) {
    StreamingSummary summary;
    summary.num_candidates = n;
    summary.borda_points.assign(static_cast<size_t>(n), 0);
    TableSnapshot snapshot{testing::CyclicTable(n, 2, 2), std::move(summary),
                           /*applied_batches=*/0, /*applied_rankings=*/0};
    snapshot.retained = true;
    const std::string path = dir + "/t" + std::to_string(n) + ".snap";
    WriteTableSnapshotFile(path, snapshot);
    return path;
  };
  const std::string tables = Handle("TABLES");
  EXPECT_EQ(Handle("RESTORE big " + write_snapshot(5001)),
            "ERR bad-request: RESTORE size out of range (n <= 5000, got 5001)");
  EXPECT_EQ(Handle("TABLES"), tables);
  // Refused over an existing table too, which stays as it was.
  const std::string before = StateSnapshot();
  EXPECT_EQ(Handle("RESTORE t " + write_snapshot(5001)).rfind(
                "ERR bad-request: RESTORE size out of range", 0),
            0u);
  EXPECT_EQ(StateSnapshot(), before);
  // The cap is inclusive, like CREATE's.
  EXPECT_EQ(Handle("RESTORE edge " + write_snapshot(5000)),
            "OK RESTORE edge candidates=5000 rankings=0 generation=0");
  std::filesystem::remove_all(dir);
}

TEST_F(ProtocolTest, NumericTokensWithAnEmbeddedNulAreRejected) {
  // strtol stops at a NUL byte; the parser must still see the whole
  // token, so "5<NUL>junk" is not read as 5.
  const std::string before = StateSnapshot();
  const std::string nul(1, '\0');
  EXPECT_EQ(Handle("APPEND t 0 1 2 3 4 5" + nul + "junk"),
            "ERR bad-ranking: candidate id must be a non-negative integer, "
            "got '5" + nul + "junk'");
  EXPECT_EQ(Handle("EVAL t 0 1 2 3 4 5" + nul),
            "ERR bad-ranking: candidate id must be a non-negative integer, "
            "got '5" + nul + "'");
  EXPECT_EQ(StateSnapshot(), before);
  const std::string tables = Handle("TABLES");
  EXPECT_EQ(Handle("CREATE u CYCLIC 6" + nul + "x 2 2").rfind(
                "ERR bad-request:", 0),
            0u);
  EXPECT_EQ(Handle("RUN t A4 LIMIT 1" + nul + "5").rfind("ERR bad-request:", 0),
            0u);
  EXPECT_EQ(Handle("TABLES"), tables);
}

TEST_F(ProtocolTest, DuplicateCreateDrawsTableExistsCode) {
  // The idempotent-retry contract: a client that lost a CREATE response
  // can re-send it and treat ERR table-exists as success — distinct from
  // bad-request, and guaranteed not to disturb the live table.
  const std::string before = StateSnapshot();
  const std::string response = Handle("CREATE t CYCLIC 6 2 3");
  EXPECT_EQ(response.rfind("ERR table-exists", 0), 0u) << response;
  EXPECT_EQ(StateSnapshot(), before);
  // Same code regardless of the CREATE source (shape differences must not
  // leak a different error class for the same condition).
  EXPECT_EQ(Handle("CREATE t CYCLIC 9 3 3").rfind("ERR table-exists", 0), 0u);
  // And the table still serves.
  EXPECT_TRUE(IsOk(Handle("RUN t A4")));
}

TEST_F(ProtocolTest, SnapshotToUnwritablePathRejectsBeforeDraining) {
  // The write target is probed before the queue drains: an unwritable
  // path must draw ERR io with the queued mutation still pending and the
  // generation counter unmoved.
  ASSERT_TRUE(IsOk(Handle("APPEND t 2 1 0 5 4 3")));
  const std::string before = StateSnapshot();
  ASSERT_NE(before.find("pending_ops=1"), std::string::npos) << before;
  const std::string response =
      Handle("SNAPSHOT t /no/such/dir/t.snap");
  EXPECT_EQ(response.rfind("ERR io", 0), 0u) << response;
  EXPECT_EQ(StateSnapshot(), before)
      << "a rejected SNAPSHOT must not have drained the queue";
}

TEST_F(ProtocolTest, RunOnEmptyTableDrawsEmptyTableError) {
  ASSERT_TRUE(IsOk(Handle("CREATE empty CYCLIC 6 2 2")));
  EXPECT_EQ(Handle("RUN empty A4").rfind("ERR empty-table", 0), 0u);
  EXPECT_EQ(Handle("RUN empty all").rfind("ERR empty-table", 0), 0u);
  // Still servable once a profile arrives.
  ASSERT_TRUE(IsOk(Handle("APPEND empty 0 1 2 3 4 5")));
  EXPECT_TRUE(IsOk(Handle("RUN empty A4")));
}

TEST_F(ProtocolTest, ErrorsNeverEnqueueHalfABatch) {
  // A batch whose SECOND ranking is bad must not enqueue its first.
  const std::string before = StateSnapshot();
  EXPECT_TRUE(IsErr(Handle("APPEND t 0 1 2 3 4 5 ; 0 0 0 0 0 0")));
  EXPECT_EQ(StateSnapshot(), before);
  // The generation counter proves nothing was applied on a later wave.
  EXPECT_TRUE(IsOk(Handle("RUN t A3")));
  const std::string stats = Handle("STATS t");
  EXPECT_NE(stats.find("rankings=2 generation=2"), std::string::npos)
      << stats;
}

/// Masks the runs= counter and the result-cache counters: EVAL bumps
/// them (it IS a consensus run, and its consensus leg goes through the
/// result cache), but everything else in STATS must hold still.
std::string MaskRuns(std::string stats) {
  for (const std::string field :
       {" runs=", " cache_hits=", " cache_misses=", " cache_entries="}) {
    const size_t at = stats.find(field);
    if (at == std::string::npos) continue;
    size_t end = at + field.size();
    while (end < stats.size() && stats[end] != ' ') ++end;
    stats.replace(at, end - at, field + "_");
  }
  return stats;
}

TEST_F(ProtocolTest, EvalScoresARankingWithoutMutating) {
  const std::string before = StateSnapshot();
  const std::string response = Handle("EVAL t 0 1 2 3 4 5");
  EXPECT_EQ(response.rfind("OK EVAL t gen=2 method=A3", 0), 0u) << response;
  EXPECT_NE(response.find(" tau="), std::string::npos) << response;
  EXPECT_NE(response.find(" ntau="), std::string::npos) << response;
  EXPECT_NE(response.find(" parity="), std::string::npos) << response;
  EXPECT_NE(response.find(" max_parity="), std::string::npos) << response;
  // Read-only up to the runs counter: the generation must not have
  // moved, and EVAL must not drain queued mutations (it observes the
  // applied profile).
  EXPECT_EQ(MaskRuns(StateSnapshot()), MaskRuns(before));
  ASSERT_TRUE(IsOk(Handle("APPEND t 2 1 0 5 4 3")));
  EXPECT_EQ(Handle("EVAL t 0 1 2 3 4 5").rfind("OK EVAL t gen=2", 0), 0u);
  EXPECT_NE(StateSnapshot().find("pending_ops=1"), std::string::npos);
  // Deterministic: same table state, same ranking, same bytes.
  EXPECT_EQ(Handle("EVAL t 5 4 3 2 1 0"), Handle("EVAL t 5 4 3 2 1 0"));
}

/// The consensus after " consensus=", as candidate ids.
std::vector<int> ConsensusIds(const std::string& response) {
  const size_t at = response.find(" consensus=");
  if (at == std::string::npos) return {};
  std::istringstream in(response.substr(at + 11));
  std::vector<int> ids;
  std::string id;
  while (std::getline(in, id, ',')) ids.push_back(std::stoi(id));
  return ids;
}

TEST_F(ProtocolTest, InfeasibleA1AnswersARepairedPermutation) {
  // Fair-Kemeny proves the default delta infeasible here; A1 must still
  // answer a full consensus (the repaired fallback, sat=0) — cold and
  // from the result cache alike.
  ASSERT_TRUE(IsOk(Handle("CREATE inf CYCLIC 6 2 2")));
  ASSERT_TRUE(IsOk(Handle("APPEND inf 0 1 2 3 4 5")));
  const std::string cold = Handle("RUN inf A1");
  const std::string cached = Handle("RUN inf A1");
  for (const std::string& response : {cold, cached}) {
    ASSERT_EQ(response.rfind("OK RUN inf", 0), 0u) << response;
    EXPECT_NE(response.find(" A1 sat=0 consensus="), std::string::npos)
        << response;
    std::vector<int> ids = ConsensusIds(response);
    ASSERT_EQ(ids.size(), 6u) << response;
    EXPECT_TRUE(Ranking::IsValidOrder(
        std::vector<CandidateId>(ids.begin(), ids.end())))
        << response;
  }
  EXPECT_EQ(cached, cold);
  EXPECT_NE(Handle("STATS inf").find(" cache_hits=1 "), std::string::npos);
}

TEST_F(ProtocolTest, EvalRejectsBadInputsAndLeavesStateUnchanged) {
  const std::string before = StateSnapshot();
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"EVAL", "ERR bad-request"},
      {"EVAL t", "ERR bad-request"},
      {"EVAL ghost 0 1 2 3 4 5", "ERR no-such-table"},
      {"EVAL t 0 1 2", "ERR bad-ranking"},            // wrong size
      {"EVAL t 0 1 2 3 4 9", "ERR bad-ranking"},      // out of domain
      {"EVAL t 0 1 2 3 4 4", "ERR bad-ranking"},      // duplicate
      {"EVAL t 0 1 2 3 4 x", "ERR bad-ranking"},      // non-numeric
      {"EVAL t 0 1 2 3 4 -5", "ERR bad-ranking"},     // negative
  };
  for (const auto& [request, expected_prefix] : cases) {
    const std::string response = Handle(request);
    EXPECT_EQ(response.rfind(expected_prefix, 0), 0u)
        << "request '" << request << "' drew '" << response << "'";
    EXPECT_EQ(StateSnapshot(), before)
        << "request '" << request << "' changed table state";
  }
  // An empty table has no consensus to score against.
  ASSERT_TRUE(IsOk(Handle("CREATE hollow CYCLIC 6 2 2")));
  EXPECT_EQ(Handle("EVAL hollow 0 1 2 3 4 5").rfind("ERR empty-table", 0),
            0u);
}

TEST_F(ProtocolTest, ReplicateIsUnavailableWithoutAStreamingFrontEnd) {
  // The plain dispatcher (stdin / --script replay) has no
  // durability layer and no binary stream to switch into: every arity
  // draws a single ERR line and no state moves.
  const std::string before = StateSnapshot();
  EXPECT_EQ(Handle("REPLICATE t").rfind("ERR unavailable", 0), 0u);
  EXPECT_EQ(Handle("REPLICATE ghost").rfind("ERR no-such-table", 0), 0u);
  EXPECT_EQ(Handle("REPLICATE").rfind("ERR bad-request", 0), 0u);
  EXPECT_EQ(Handle("REPLICATE t extra").rfind("ERR bad-request", 0), 0u);
  EXPECT_EQ(StateSnapshot(), before);
  // Classified for the schedulers: a barrier AND flagged for streaming
  // interception; malformed variants lose the stream flag's table.
  const serve::RequestClass cls = serve::ClassifyRequest("REPLICATE t");
  EXPECT_TRUE(cls.replicate);
  EXPECT_TRUE(cls.barrier);
}

TEST_F(ProtocolTest, FollowerTablesRejectMutationsWithReadonly) {
  manager_.SetTableRole("t", serve::TableRole::kFollower);
  const std::string before = StateSnapshot();
  ASSERT_NE(before.find("role=follower"), std::string::npos) << before;
  for (const char* request :
       {"APPEND t 0 1 2 3 4 5", "REMOVE t 0",
        "SNAPSHOT-POLICY t GENERATIONS 4"}) {
    const std::string response = Handle(request);
    EXPECT_TRUE(IsErr(response)) << request << " drew " << response;
    EXPECT_EQ(StateSnapshot(), before)
        << "request '" << request << "' changed follower state";
  }
  EXPECT_EQ(Handle("APPEND t 0 1 2 3 4 5").rfind("ERR readonly", 0), 0u);
  // With APPEND/REMOVE rejected the follower's queue is always empty, so
  // FLUSH degenerates to a harmless no-op drain.
  EXPECT_EQ(Handle("FLUSH t"), "OK FLUSH t applied=0");
  // Reads keep serving: RUN (draining is a no-op on an empty queue),
  // STATS, EVAL.
  EXPECT_TRUE(IsOk(Handle("RUN t A4")));
  EXPECT_TRUE(IsOk(Handle("EVAL t 0 1 2 3 4 5")));
  // The replication path itself may still apply records.
  OpRecord record;
  record.kind = OpRecord::Kind::kAppend;
  record.rankings.push_back(Ranking({2, 0, 4, 1, 5, 3}));
  EXPECT_EQ(manager_.ApplyReplicated("t", std::move(record)), 1u);
  EXPECT_NE(Handle("STATS t").find("rankings=3 generation=3"),
            std::string::npos);
  // Back to leader: mutations flow again.
  manager_.SetTableRole("t", serve::TableRole::kLeader);
  EXPECT_TRUE(IsOk(Handle("APPEND t 0 1 2 3 4 5")));
  EXPECT_TRUE(IsOk(Handle("FLUSH t")));
}

TEST_F(ProtocolTest, FollowerRestoreReplacesTheTableReadOnlyInOneStep) {
  // A leader restore over a taken name still refuses.
  const auto exact = serve::SnapshotMode::kAuto;
  EXPECT_THROW(manager_.RestoreTable("t", manager_.SnapshotTable("t", exact)),
               std::invalid_argument);
  // A follower restore (a replication re-handshake) replaces the table,
  // and the new table is read-only from the moment it is visible.
  const serve::TableStats stats = manager_.RestoreTable(
      "t", manager_.SnapshotTable("t", exact), serve::TableRole::kFollower);
  EXPECT_EQ(stats.role, serve::TableRole::kFollower);
  EXPECT_THROW(manager_.Append("t", {Ranking({0, 1, 2, 3, 4, 5})}),
               serve::ReadOnlyTableError);
  const std::string after = Handle("STATS t");
  EXPECT_NE(after.find("rankings=2 generation=2"), std::string::npos)
      << after;
  EXPECT_NE(after.find("role=follower"), std::string::npos) << after;
}

TEST_F(ProtocolTest, FuzzedRequestLinesNeverCrashOrCorrupt) {
  // Deterministic fuzz-ish sweep: random token soup plus mutations of
  // valid requests. Every line must draw exactly one OK/ERR response (or
  // none for comments), never throw, and ERR responses must leave the
  // applied state untouched.
  Rng rng(20260730);
  const std::vector<std::string> vocabulary = {
      "CREATE", "APPEND",  "REMOVE", "RUN",   "STATS", "FLUSH",
      "DROP",   "TABLES",  "t",      "ghost", "A4",    "all",
      "0",      "1",       "5",      "-1",    ";",     "DELTA",
      "LIMIT",  "CYCLIC",  "FILE",   "0.2",   "x",     "99999999999999999999",
      "#",      "\t",      "",       "🙂",    "NaN",   "1e9",
      "EVAL",   "REPLICATE"};
  int errs = 0;
  int oks = 0;
  int consensus_lists = 0;
  // Well-formed RUN probes between fuzz rounds (they draw no randomness,
  // so the fuzz lines are unchanged): the fuzz alone rarely forms one.
  const std::vector<std::string> run_probes = {
      "all", "A1", "A2", "A3", "A4", "B1", "B2", "B3", "B4", "all DELTA 0.01"};
  for (int round = 0; round < 400; ++round) {
    if (round % 20 == 0) {
      const std::string probe = "RUN t " + run_probes[(round / 20) %
                                                      run_probes.size()];
      const std::string response = Handle(probe);
      if (response.rfind("OK RUN ", 0) == 0) {
        consensus_lists += ExpectConsensusPermutations(response);
      }
    }
    std::ostringstream line;
    const int tokens = 1 + static_cast<int>(rng.NextUint64(8));
    for (int i = 0; i < tokens; ++i) {
      if (i > 0) line << ' ';
      line << vocabulary[rng.NextUint64(vocabulary.size())];
    }
    const std::string before = StateSnapshot();
    std::string response;
    ASSERT_NO_THROW(response = Handle(line.str())) << line.str();
    if (response.empty()) continue;  // comment/blank
    ASSERT_TRUE(IsOk(response) || IsErr(response))
        << "request '" << line.str() << "' drew '" << response << "'";
    if (IsErr(response)) {
      ++errs;
      EXPECT_EQ(StateSnapshot(), before)
          << "request '" << line.str() << "' errored but changed state";
    } else {
      ++oks;
      if (response.rfind("OK RUN ", 0) == 0) {
        consensus_lists += ExpectConsensusPermutations(response);
      }
    }
  }
  // The vocabulary is rigged so both outcomes occur.
  EXPECT_GT(errs, 50);
  EXPECT_GT(oks, 0);
  // Every OK consensus is a permutation of 0..n-1.
  EXPECT_GT(consensus_lists, 0);
  // The dispatcher is still fully servable after the storm: a fresh
  // table created post-fuzz serves a clean wave.
  EXPECT_TRUE(IsOk(Handle("CREATE postfuzz CYCLIC 6 2 2")));
  EXPECT_TRUE(IsOk(Handle("APPEND postfuzz 0 1 2 3 4 5")));
  EXPECT_TRUE(IsOk(Handle("RUN postfuzz A4")));
}

}  // namespace
}  // namespace manirank
