#ifndef MANIRANK_SERVE_RESULT_CACHE_H_
#define MANIRANK_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "core/context.h"
#include "core/types.h"

namespace manirank::serve {

/// FNV-1a 64 over a byte string — the same hash discipline the snapshot /
/// op log formats use. Exposed so callers can fold query options into a
/// stable cache key.
uint64_t HashBytes(const void* data, size_t size, uint64_t seed = 0);
uint64_t HashValue(uint64_t value, uint64_t seed);
uint64_t HashValue(double value, uint64_t seed);

/// Cached outcome of one SELECT query at one generation. Proven-
/// infeasible outcomes are cached too (the proof is a deterministic
/// property of the profile); only budget-limited non-optimal slates
/// stay out.
struct CachedSelect {
  std::vector<CandidateId> selected;
  long long cost = 0;
  bool feasible = false;
  bool used_ilp = false;
  bool optimal = false;
};

/// Per-table, generation-keyed cache of consensus results.
///
/// Entries are keyed by (method id, options hash, generation): a profile
/// mutation bumps the table's generation, so a fold commit makes every
/// prior entry unreachable — ContextManager::Drain additionally calls
/// EvictOtherGenerations at each fold boundary (leader commits and
/// follower ApplyReplicated both land there) so dead generations do not
/// accumulate. Inserts must be keyed by the generation the run OBSERVED
/// (ConsensusContext::RunMethod's generation_observed overload, read under
/// the shared gate), never by a later generation() read; lookups may use
/// the seqlock counters — a mid-fold generation has no entries (inserts
/// only happen at fold boundaries), so the worst case is a miss that
/// recomputes, never a stale hit.
///
/// Counter discipline: `hits` increments on a successful lookup, `misses`
/// only when a completed run is inserted. Requests that fail validation or
/// throw never move either counter, preserving the protocol invariant that
/// an ERR response leaves STATS untouched.
///
/// Thread-safe; all methods take an internal mutex. Capacity-bounded
/// (kMaxEntries, FIFO eviction by key order) so an adversarial stream of
/// distinct SELECT queries at one generation cannot grow without bound.
class ResultCache {
 public:
  static constexpr size_t kMaxEntries = 128;

  /// Disabling (a cache-off twin in tests/bench) turns Lookup* into unconditional misses and Insert*
  /// into no-ops, with no counter movement.
  void set_enabled(bool enabled);
  bool enabled() const;

  bool LookupRun(const std::string& method, uint64_t options_hash,
                 uint64_t generation, ConsensusOutput* out) const;
  void InsertRun(const std::string& method, uint64_t options_hash,
                 uint64_t generation, const ConsensusOutput& output);

  bool LookupSelect(uint64_t query_hash, uint64_t generation,
                    CachedSelect* out) const;
  void InsertSelect(uint64_t query_hash, uint64_t generation,
                    const CachedSelect& result);

  /// Drops every entry whose generation differs from `generation`. Called
  /// at fold boundaries with the post-fold generation.
  void EvictOtherGenerations(uint64_t generation);

  /// Drops everything (counters survive).
  void Clear();

  uint64_t hits() const;
  uint64_t misses() const;
  size_t entries() const;

 private:
  // Key: (kind, method-or-query tag, options hash, generation). RUN/EVAL
  // consensus entries use kind 0 + the method id; SELECT entries use
  // kind 1 + an empty tag (the whole query is folded into the hash).
  using Key = std::tuple<int, std::string, uint64_t, uint64_t>;

  struct Entry {
    ConsensusOutput run;
    CachedSelect select;
  };

  void InsertLocked(Key key, Entry entry);

  mutable std::mutex mu_;
  bool enabled_ = true;
  std::map<Key, Entry> entries_;
  mutable uint64_t hits_ = 0;
  mutable uint64_t misses_ = 0;
};

}  // namespace manirank::serve

#endif  // MANIRANK_SERVE_RESULT_CACHE_H_
