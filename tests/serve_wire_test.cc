// Wire-format tests for the line protocol's text layer (serve/protocol.h).
//
// GoldenTranscript replays tests/golden/wire.script through a Dispatcher
// and compares the responses byte for byte with tests/golden/wire.expected,
// which was recorded by replaying the same script through
// `manirank_serve --script` before the string_view tokenizer and the
// to_chars formatter existed. In both files @DATA@ stands for
// tests/golden and @TMP@ for a fresh scratch directory. The script
// covers every verb's OK form that a plain Dispatcher can give (METRICS,
// REPLICATE and SNAPSHOT-POLICY need the executor or the durability
// layer, so only their ERR forms appear), every parse-error path, the
// numeric edge tokens and the ';' / TAB / CR separator placements.
//
// The differential tests hold the tokenizer and the APPEND/EVAL payload
// parser to the original Tokenize + strtol implementation, which is kept
// below as the oracle.

#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "serve/context_manager.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

namespace fs = std::filesystem;

using serve::ContextManager;
using serve::Dispatcher;
using serve::LineTokenizer;

// --- the oracle: the original wire parser -----------------------------------

/// Whitespace tokenizer that also splits ';' into its own token.
std::vector<std::string> ReferenceTokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::string current;
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
    } else if (c == ';') {
      if (!current.empty()) tokens.push_back(std::move(current));
      current.clear();
      tokens.emplace_back(";");
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) tokens.push_back(std::move(current));
  return tokens;
}

/// strtol must consume the whole token: an embedded NUL ("5<NUL>junk")
/// is rejected, not read as its prefix.
std::optional<long> ReferenceParseLong(const std::string& token) {
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(token.c_str(), &end, 10);
  if (end == token.c_str() || end != token.c_str() + token.size() ||
      errno == ERANGE) {
    return std::nullopt;
  }
  return v;
}

/// The parse phase of the original APPEND / EVAL handlers. Either `error`
/// holds the response the parse phase answers, or `canonical` holds the
/// same request re-rendered as plain ids separated by single spaces, which
/// the handler must treat exactly like the original line.
struct ReferenceParse {
  std::string error;
  std::string canonical;
  /// Some accepted id was not spelled as plain digits ("+5", "\v5", ...).
  bool respelled = false;
};

ReferenceParse ReferenceParsePayload(const std::string& line) {
  const std::vector<std::string> tokens = ReferenceTokenize(line);
  const bool append = tokens[0] == "APPEND";
  ReferenceParse out;
  if (tokens.size() < 3) {
    out.error = append ? "ERR bad-request: APPEND <table> <c0> <c1> ... [; ...]"
                       : "ERR bad-request: EVAL <table> <c0> <c1> ...";
    return out;
  }
  out.canonical = tokens[0] + " " + tokens[1];
  std::vector<CandidateId> order;
  for (size_t i = 2; i <= tokens.size(); ++i) {
    if (append && (i == tokens.size() || tokens[i] == ";")) {
      if (order.empty()) {
        out.error = "ERR bad-ranking: empty ranking in APPEND payload";
        return out;
      }
      if (!testing::IsPermutationOfRange(order, static_cast<int>(order.size()))) {
        out.error =
            "ERR bad-ranking: APPEND payload is not a permutation of 0..n-1";
        return out;
      }
      for (CandidateId c : order) out.canonical += " " + std::to_string(c);
      if (i != tokens.size()) out.canonical += " ;";
      order.clear();
      continue;
    }
    if (i == tokens.size()) break;
    const auto c = ReferenceParseLong(tokens[i]);
    if (!c || *c < 0 || *c > std::numeric_limits<CandidateId>::max()) {
      out.error =
          "ERR bad-ranking: candidate id must be a non-negative integer, got '" +
          tokens[i] + "'";
      return out;
    }
    order.push_back(static_cast<CandidateId>(*c));
    if (tokens[i] != std::to_string(*c)) out.respelled = true;
  }
  if (!append) {
    if (!testing::IsPermutationOfRange(order, static_cast<int>(order.size()))) {
      out.error = "ERR bad-ranking: EVAL payload is not a permutation of 0..n-1";
      return out;
    }
    for (CandidateId c : order) out.canonical += " " + std::to_string(c);
  }
  return out;
}

std::vector<std::string> NewTokenize(const std::string& line) {
  std::vector<std::string> tokens;
  LineTokenizer cursor(line);
  for (std::string_view t = cursor.Next(); !t.empty(); t = cursor.Next()) {
    tokens.emplace_back(t);
  }
  return tokens;
}

// --- golden transcript ------------------------------------------------------

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

std::string ReplaceAll(std::string text, const std::string& from,
                       const std::string& to) {
  for (size_t at = text.find(from); at != std::string::npos;
       at = text.find(from, at + to.size())) {
    text.replace(at, from.size(), to);
  }
  return text;
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(WireTest, GoldenTranscript) {
  const std::string data = MANIRANK_TEST_GOLDEN_DIR;
  const std::string tmp = ::testing::TempDir() + "manirank_wire_golden";
  fs::remove_all(tmp);
  fs::create_directories(tmp);
  const auto expand = [&](const std::string& text) {
    return ReplaceAll(ReplaceAll(text, "@DATA@", data), "@TMP@", tmp);
  };
  std::istringstream script(expand(ReadFile(data + "/wire.script")));
  const std::vector<std::string> expected =
      SplitLines(expand(ReadFile(data + "/wire.expected")));
  ASSERT_GT(expected.size(), 150u);

  ContextManager manager;
  Dispatcher dispatcher(&manager);
  std::ostringstream responses;
  dispatcher.ServeStream(script, responses);
  const std::vector<std::string> got = SplitLines(responses.str());
  for (size_t i = 0; i < std::min(got.size(), expected.size()); ++i) {
    ASSERT_EQ(got[i], expected[i]) << "response " << i + 1;
  }
  EXPECT_EQ(got.size(), expected.size());
  fs::remove_all(tmp);
}

// --- differential tests against the oracle ----------------------------------

TEST(WireTest, TokenizerMatchesReferenceOnRandomBytes) {
  // Separators, ';', the isspace bytes that do NOT separate, NUL and a
  // few token bytes, in random runs.
  const std::string alphabet(" \t\r;\v\f\n\0a1#-", 12);
  Rng rng(1501);
  for (int round = 0; round < 20000; ++round) {
    std::string line;
    const size_t length = rng.NextUint64(24);
    for (size_t i = 0; i < length; ++i) {
      line.push_back(alphabet[rng.NextUint64(alphabet.size())]);
    }
    ASSERT_EQ(NewTokenize(line), ReferenceTokenize(line))
        << "line of " << line.size() << " bytes, round " << round;
  }
}

/// One candidate id in a random spelling that strtol reads as `id`, or
/// (case 5) a near miss with an embedded NUL that must be rejected.
std::string SpellId(CandidateId id, Rng* rng) {
  const std::string digits = std::to_string(id);
  switch (rng->NextUint64(12)) {
    case 0: return "+" + digits;
    case 1: return "00" + digits;
    case 2: return "\v" + digits;
    case 3: return "\f+" + digits;
    case 4: return id == 0 ? "-0" : digits;
    case 5: return digits + std::string(1, '\0') + "junk";
    default: return digits;
  }
}

std::string Separator(Rng* rng) {
  static const char* kSeparators[] = {" ", " ", " ", "  ", "\t", "\r", " \t\r "};
  return kSeparators[rng->NextUint64(std::size(kSeparators))];
}

/// A well-formed or near-miss APPEND / EVAL line for a table of n
/// candidates, with random spellings and separators, then random edits.
std::string RandomPayloadLine(int n, Rng* rng) {
  const bool append = rng->NextUint64(10) < 7;
  std::string line = append ? "APPEND" : "EVAL";
  const size_t verb_end = line.size();
  const uint64_t table = rng->NextUint64(20);
  line += Separator(rng) + (table == 0 ? "ghost" : table == 1 ? "t\v" : "t");
  const int rankings = append ? 1 + static_cast<int>(rng->NextUint64(3)) : 1;
  for (int r = 0; r < rankings; ++r) {
    if (r > 0) {
      const uint64_t glue = rng->NextUint64(3);
      line += glue == 0 ? ";" : glue == 1 ? " ; " : Separator(rng) + ";";
    }
    // Mostly full permutations; sometimes one candidate short or extra.
    const uint64_t shape = rng->NextUint64(10);
    const int size = shape == 0 ? n - 1 : shape == 1 ? n + 1 : n;
    std::vector<CandidateId> order(size);
    std::iota(order.begin(), order.end(), 0);
    rng->Shuffle(&order);
    for (int i = 0; i < size; ++i) {
      if (i > 0 || r == 0 || rng->NextUint64(2) == 0) line += Separator(rng);
      line += SpellId(order[i], rng);
    }
  }
  // Random edits after the verb and its first separator byte: a byte
  // inserted, deleted or replaced, or a whole numeric edge token spliced
  // in.
  static const std::string kBytes("0123456789-+; \t\r\v\f\0xe.", 23);
  static const char* kEdgeTokens[] = {
      "2147483647", "2147483648", "-2147483648", "99999999999999999999",
      "-",          "+",          "1e3",         "0x5",
      "5x",         ";;",         "-1",          "007"};
  const int edits =
      rng->NextUint64(3) == 0 ? 1 + static_cast<int>(rng->NextUint64(3)) : 0;
  for (int e = 0; e < edits; ++e) {
    const size_t at = verb_end + 1 + rng->NextUint64(line.size() - verb_end);
    switch (rng->NextUint64(4)) {
      case 0:
        line.insert(at, 1, kBytes[rng->NextUint64(kBytes.size())]);
        break;
      case 1:
        if (at < line.size()) line.erase(at, 1);
        break;
      case 2:
        if (at < line.size()) line[at] = kBytes[rng->NextUint64(kBytes.size())];
        break;
      default:
        line.insert(at, std::string(" ") +
                            kEdgeTokens[rng->NextUint64(std::size(kEdgeTokens))] +
                            " ");
    }
  }
  return line;
}

TEST(WireTest, AppendAndEvalMatchReferenceParser) {
  // Dispatcher `live` answers the generated lines; `twin` answers the
  // oracle's canonical rendering of each line the oracle parses. Both
  // hold the same table, so every response must match byte for byte, and
  // a line the oracle rejects must draw exactly the oracle's ERR.
  constexpr int kCandidates = 7;
  ContextManager live_manager;
  ContextManager twin_manager;
  Dispatcher live(&live_manager);
  Dispatcher twin(&twin_manager);
  for (Dispatcher* d : {&live, &twin}) {
    ASSERT_EQ(d->Handle("CREATE t CYCLIC 7 2 2"),
              "OK CREATE t candidates=7 rankings=0");
    ASSERT_EQ(d->Handle("APPEND t 0 1 2 3 4 5 6"),
              "OK APPEND t queued=1 pending_ops=1 pending_rankings=1");
  }
  Rng rng(20261018);
  int parse_errors = 0;
  int oks = 0;
  int respelled_oks = 0;
  for (int round = 0; round < 6000; ++round) {
    const std::string line = RandomPayloadLine(kCandidates, &rng);
    const ReferenceParse reference = ReferenceParsePayload(line);
    const std::string got = live.Handle(line);
    if (!reference.error.empty()) {
      ++parse_errors;
      ASSERT_EQ(got, reference.error) << "round " << round;
    } else {
      ASSERT_EQ(got, twin.Handle(reference.canonical)) << "round " << round;
      if (got.rfind("OK", 0) == 0) {
        ++oks;
        if (reference.respelled) ++respelled_oks;
      }
    }
    if (round % 200 == 199) {
      ASSERT_EQ(live.Handle("FLUSH t"), twin.Handle("FLUSH t"));
      ASSERT_EQ(live.Handle("STATS t"), twin.Handle("STATS t"));
    }
  }
  EXPECT_EQ(live.Handle("RUN t all"), twin.Handle("RUN t all"));
  // The generator is rigged so every outcome occurs often.
  EXPECT_GT(parse_errors, 1000);
  EXPECT_GT(oks, 1000);
  EXPECT_GT(respelled_oks, 500);
}

}  // namespace
}  // namespace manirank
