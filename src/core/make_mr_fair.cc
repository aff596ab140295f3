#include "core/make_mr_fair.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace manirank {
namespace {

/// Ranking positions one group occupies, as a bitset over 0..n-1: the
/// kIndexed engine's position index. A swap moves one bit in each of the
/// two touched groups; neighbour queries are ctz/clz word scans and order
/// statistics are popcount walks.
class PositionSet {
 public:
  explicit PositionSet(int n) : words_((n + 63) / 64, 0) {}

  /// Build-time only: a swap moves members, it never adds them.
  void Insert(int pos) {
    words_[pos >> 6] |= uint64_t{1} << (pos & 63);
    ++size_;
  }
  void Move(int from, int to) {
    words_[from >> 6] &= ~(uint64_t{1} << (from & 63));
    words_[to >> 6] |= uint64_t{1} << (to & 63);
  }

  int size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Smallest member > pos (pos may be -1), or -1 if none.
  int NextAfter(int pos) const {
    size_t w = static_cast<size_t>(pos + 1) >> 6;
    if (w >= words_.size()) return -1;
    uint64_t bits = words_[w] & (~uint64_t{0} << ((pos + 1) & 63));
    while (bits == 0) {
      if (++w == words_.size()) return -1;
      bits = words_[w];
    }
    return static_cast<int>(w * 64) + __builtin_ctzll(bits);
  }

  /// Largest member < pos (pos may be n), or -1 if none.
  int PrevBefore(int pos) const {
    if (pos <= 0) return -1;
    size_t w = static_cast<size_t>(pos - 1) >> 6;
    uint64_t bits = words_[w] & (~uint64_t{0} >> (63 - ((pos - 1) & 63)));
    while (bits == 0) {
      if (w-- == 0) return -1;
      bits = words_[w];
    }
    return static_cast<int>(w * 64) + 63 - __builtin_clzll(bits);
  }

  int First() const { return NextAfter(-1); }
  int Last() const { return PrevBefore(static_cast<int>(words_.size() * 64)); }

  /// Number of members > pos.
  int CountAfter(int pos) const {
    size_t w = static_cast<size_t>(pos + 1) >> 6;
    if (w >= words_.size()) return 0;
    int count =
        __builtin_popcountll(words_[w] & (~uint64_t{0} << ((pos + 1) & 63)));
    while (++w < words_.size()) count += __builtin_popcountll(words_[w]);
    return count;
  }

  /// The k-th smallest member > pos (0-based); k < CountAfter(pos).
  int KthAfter(int pos, int k) const {
    size_t w = static_cast<size_t>(pos + 1) >> 6;
    uint64_t bits = words_[w] & (~uint64_t{0} << ((pos + 1) & 63));
    for (int c = __builtin_popcountll(bits); k >= c;
         c = __builtin_popcountll(bits)) {
      k -= c;
      bits = words_[++w];
    }
    for (; k > 0; --k) bits &= bits - 1;
    return static_cast<int>(w * 64) + __builtin_ctzll(bits);
  }

 private:
  std::vector<uint64_t> words_;
  int size_ = 0;
};

/// Anti-cycling tabu list over the last kTenure swapped candidate pairs: a
/// FIFO plus the set the tabu test reads, both flat. It keeps the
/// FIFO-and-set semantics exactly, quirk included: a pair leaving the FIFO
/// leaves the set even while a newer copy of it is still queued.
class TabuList {
 public:
  bool Contains(CandidateId a, CandidateId b) const {
    return std::find(set_.begin(), set_.begin() + set_size_, Key(a, b)) !=
           set_.begin() + set_size_;
  }

  void Push(CandidateId a, CandidateId b) {
    const uint64_t key = Key(a, b);
    fifo_[fifo_size_++] = key;
    if (!Contains(a, b)) set_[set_size_++] = key;
    if (fifo_size_ > kTenure) {
      const uint64_t oldest = fifo_[0];
      std::copy(fifo_.begin() + 1, fifo_.begin() + fifo_size_, fifo_.begin());
      --fifo_size_;
      const auto end = set_.begin() + set_size_;
      const auto it = std::find(set_.begin(), end, oldest);
      if (it != end) {
        *it = *(end - 1);
        --set_size_;
      }
    }
  }

  void Clear() { fifo_size_ = set_size_ = 0; }

 private:
  static constexpr size_t kTenure = 16;

  static uint64_t Key(CandidateId a, CandidateId b) {
    if (b < a) std::swap(a, b);
    return (uint64_t{static_cast<uint32_t>(a)} << 32) |
           static_cast<uint32_t>(b);
  }

  std::array<uint64_t, kTenure + 1> fifo_{};  // oldest first
  std::array<uint64_t, kTenure + 1> set_{};   // unordered
  size_t fifo_size_ = 0;
  size_t set_size_ = 0;
};

struct GroupingState {
  const Grouping* grouping;
  double threshold;
  std::vector<int64_t> favored;       // FPR numerators
  std::vector<int64_t> denom;         // mixed-pair counts
  std::vector<PositionSet> positions;  // kIndexed only: per-group index

  double Fpr(int g) const {
    if (denom[g] == 0) return 0.5;
    return static_cast<double>(favored[g]) / static_cast<double>(denom[g]);
  }

  /// (parity, argmax group, argmin group).
  void Parity(double* parity, int* highest, int* lowest) const {
    double max_fpr = -std::numeric_limits<double>::infinity();
    double min_fpr = std::numeric_limits<double>::infinity();
    *highest = *lowest = 0;
    for (int g = 0; g < grouping->num_groups(); ++g) {
      const double f = Fpr(g);
      if (f > max_fpr) {
        max_fpr = f;
        *highest = g;
      }
      if (f < min_fpr) {
        min_fpr = f;
        *lowest = g;
      }
    }
    *parity = grouping->num_groups() < 2 ? 0.0 : max_fpr - min_fpr;
  }
};

/// Crossing pairs examined per swap: caps selection cost on huge groups
/// (10^5-candidate inputs); the nearest crossings carry the most useful
/// distances anyway. Tabu-skipped pairs count toward the cap.
constexpr int kScanCap = 512;

/// The swap-pair rule over the crossing pairs (p above q) a scan offers,
/// in scan order: q runs down G_lowest's members from the highest one
/// that has a G_highest member above it, and p is the lowest G_highest
/// member above q. The first pair offered is the paper's.
///
/// Convergence safeguard (a deviation from the paper noted in the
/// header): a swap across distance d moves the two groups' FPR gap by
/// d * (1/denom_h + 1/denom_l). Whenever the paper's pair would overshoot
/// past -threshold — which makes the repair loop oscillate around small
/// thresholds — the rule picks the smallest in-band distance (lands just
/// inside +threshold, minimal collateral on the other groupings), else
/// the largest undershooting distance, else the overall minimum.
class SwapChoice {
 public:
  SwapChoice(const GroupingState& state, int gh, int gl) {
    const double gap = state.Fpr(gh) - state.Fpr(gl);
    const double alpha = 1.0 / static_cast<double>(state.denom[gh]) +
                         1.0 / static_cast<double>(state.denom[gl]);
    d_max_ = (gap + state.threshold) / alpha;  // stay above -threshold
    d_min_ = (gap - state.threshold) / alpha;  // land below +threshold
  }

  void Offer(int pp, int qq) {
    const int d = qq - pp;
    if (paper_.p < 0) paper_ = {pp, qq};
    if (min_.p < 0 || d < min_.d()) min_ = {pp, qq};
    if (static_cast<double>(d) <= d_max_) {
      if (static_cast<double>(d) >= d_min_) {
        if (in_band_.p < 0 || d < in_band_.d()) in_band_ = {pp, qq};
      } else if (under_.p < 0 || d > under_.d()) {
        under_ = {pp, qq};
      }
    }
  }

  /// True once the paper's pair is known not to overshoot: no later offer
  /// can change the choice.
  bool PaperFits() const {
    return paper_.p >= 0 && static_cast<double>(paper_.d()) <= d_max_;
  }

  /// False when nothing was offered (everything tabu, or unreachable).
  bool Pick(int* p, int* q) const {
    if (paper_.p < 0) return false;
    const Pair& pick = PaperFits()        ? paper_
                       : in_band_.p >= 0 ? in_band_
                       : under_.p >= 0   ? under_
                                         : min_;
    *p = pick.p;
    *q = pick.q;
    return true;
  }

 private:
  struct Pair {
    int p = -1, q = -1;
    int d() const { return q - p; }
  };
  double d_max_, d_min_;
  Pair paper_;    // first pair offered
  Pair in_band_;  // smallest d in [d_min, d_max]
  Pair under_;    // largest d < d_min
  Pair min_;      // smallest d overall
};

// --- kIndexed: bitset position index, early-exit scan ------------------------

/// The paper's swap pair for (gh, gl) on the bitset index. The scan stops
/// at the first non-tabu pair unless it overshoots; only then does it
/// walk on for the safeguard's alternatives. Pairs on the tabu list
/// (recent swaps) are skipped unless nothing else is available, which
/// breaks deterministic two-cycles between coupled groupings.
bool IndexedPaperSwap(const GroupingState& state, int gh, int gl,
                      const Ranking& r, const TabuList& tabu, int* p,
                      int* q) {
  const PositionSet& high = state.positions[gh];
  const PositionSet& low = state.positions[gl];
  if (high.empty() || low.empty()) return false;
  const int first_q = low.NextAfter(high.First());
  if (first_q < 0) return false;
  auto scan = [&](bool respect_tabu) {
    SwapChoice choice(state, gh, gl);
    int scanned = 0;
    for (int qq = first_q; qq >= 0 && scanned < kScanCap;
         qq = low.NextAfter(qq), ++scanned) {
      const int pp = high.PrevBefore(qq);
      if (respect_tabu && tabu.Contains(r.At(pp), r.At(qq))) continue;
      choice.Offer(pp, qq);
      if (choice.PaperFits()) break;
    }
    return choice.Pick(p, q);
  };
  // Aspiration: if the tabu list blocks every pair, ignore it.
  return scan(/*respect_tabu=*/true) || scan(/*respect_tabu=*/false);
}

/// Ablation policy: a uniformly random (G_highest above G_lowest) pair.
bool IndexedRandomSwap(const GroupingState& state, int gh, int gl,
                       const Ranking& r, const TabuList& tabu, Rng* rng,
                       int* p, int* q) {
  const PositionSet& high = state.positions[gh];
  const PositionSet& low = state.positions[gl];
  if (high.empty() || low.empty()) return false;
  if (high.First() >= low.Last()) return false;  // no crossing
  for (int attempt = 0; attempt < 64; ++attempt) {
    // Random G_highest member, then a random lower G_lowest member.
    const int hp =
        high.KthAfter(-1, static_cast<int>(rng->NextUint64(high.size())));
    const int below = low.CountAfter(hp);
    if (below == 0) continue;
    *p = hp;
    *q = low.KthAfter(hp, static_cast<int>(rng->NextUint64(below)));
    return true;
  }
  return IndexedPaperSwap(state, gh, gl, r, tabu, p, q);
}

// --- kReference: positions read off the ranking, exhaustive scan ------------

/// Ascending positions of group g's members, read off the ranking.
std::vector<int> GroupPositions(const Ranking& r, const Grouping& grouping,
                                int g) {
  std::vector<int> positions;
  for (int pos = 0; pos < r.size(); ++pos) {
    if (grouping.group_of[r.At(pos)] == g) positions.push_back(pos);
  }
  return positions;
}

/// The same rule as IndexedPaperSwap, by the book: every crossing pair up
/// to the cap is offered, with no early exit.
bool ReferencePaperSwap(const GroupingState& state, int gh, int gl,
                        const Ranking& r, const TabuList& tabu, int* p,
                        int* q) {
  const std::vector<int> high = GroupPositions(r, *state.grouping, gh);
  const std::vector<int> low = GroupPositions(r, *state.grouping, gl);
  if (high.empty() || low.empty()) return false;
  const auto begin = std::upper_bound(low.begin(), low.end(), high.front());
  if (begin == low.end()) return false;
  auto scan = [&](bool respect_tabu) {
    SwapChoice choice(state, gh, gl);
    int scanned = 0;
    for (auto it = begin; it != low.end() && scanned < kScanCap;
         ++it, ++scanned) {
      const int pp = *(std::lower_bound(high.begin(), high.end(), *it) - 1);
      if (respect_tabu && tabu.Contains(r.At(pp), r.At(*it))) continue;
      choice.Offer(pp, *it);
    }
    return choice.Pick(p, q);
  };
  return scan(/*respect_tabu=*/true) || scan(/*respect_tabu=*/false);
}

bool ReferenceRandomSwap(const GroupingState& state, int gh, int gl,
                         const Ranking& r, const TabuList& tabu, Rng* rng,
                         int* p, int* q) {
  const std::vector<int> high = GroupPositions(r, *state.grouping, gh);
  const std::vector<int> low = GroupPositions(r, *state.grouping, gl);
  if (high.empty() || low.empty()) return false;
  if (high.front() >= low.back()) return false;  // no crossing
  for (int attempt = 0; attempt < 64; ++attempt) {
    const int hp = high[rng->NextUint64(high.size())];
    const auto lit = std::upper_bound(low.begin(), low.end(), hp);
    if (lit == low.end()) continue;
    *p = hp;
    *q = lit[rng->NextUint64(static_cast<uint64_t>(low.end() - lit))];
    return true;
  }
  return ReferencePaperSwap(state, gh, gl, r, tabu, p, q);
}

}  // namespace

MakeMrFairResult MakeMrFair(const Ranking& consensus,
                            const CandidateTable& table,
                            const MakeMrFairOptions& options) {
  const int n = consensus.size();
  MakeMrFairResult result;
  result.ranking = consensus;
  Ranking& r = result.ranking;

  const ManiRankThresholds thresholds =
      options.thresholds.value_or(
          ManiRankThresholds::Uniform(table.num_attributes(), options.delta));
  const int64_t max_swaps =
      options.max_swaps >= 0 ? options.max_swaps : TotalPairs(n);
  const bool indexed = options.engine == MakeMrFairOptions::Engine::kIndexed;
  Rng rng(options.seed);

  // --- build per-criterion state -------------------------------------------
  std::vector<FairnessCriterion> criteria;
  if (options.use_standard_criteria) {
    criteria = ManiRankCriteria(table, thresholds);
  }
  criteria.insert(criteria.end(), options.extra_criteria.begin(),
                  options.extra_criteria.end());
  std::vector<GroupingState> states;
  states.reserve(criteria.size());
  for (const FairnessCriterion& criterion : criteria) {
    GroupingState s;
    s.grouping = criterion.grouping;
    s.threshold = criterion.threshold;
    s.favored = GroupFavoredPairs(r, *s.grouping);
    s.denom.resize(s.grouping->num_groups());
    for (int g = 0; g < s.grouping->num_groups(); ++g) {
      s.denom[g] = MixedPairs(s.grouping->group_size(g), n);
    }
    if (indexed) {
      s.positions.assign(s.grouping->num_groups(), PositionSet(n));
      for (int pos = 0; pos < n; ++pos) {
        s.positions[s.grouping->group_of[r.At(pos)]].Insert(pos);
      }
    }
    states.push_back(std::move(s));
  }

  TabuList tabu;
  auto paper_swap = [&](const GroupingState& s, int gh, int gl, int* p,
                        int* q) {
    return indexed ? IndexedPaperSwap(s, gh, gl, r, tabu, p, q)
                   : ReferencePaperSwap(s, gh, gl, r, tabu, p, q);
  };
  auto random_swap = [&](const GroupingState& s, int gh, int gl, int* p,
                         int* q) {
    return indexed ? IndexedRandomSwap(s, gh, gl, r, tabu, &rng, p, q)
                   : ReferenceRandomSwap(s, gh, gl, r, tabu, &rng, p, q);
  };

  // Stall guard: the greedy loop can cycle between configurations when a
  // threshold is unreachable (e.g. parity 0 with an odd number of mixed
  // pairs). Track the best max-violation seen and bail out when no strict
  // improvement happens for a full window; the best state is restored by
  // undoing the swap history (swaps are involutions), which avoids
  // snapshotting the ranking on every improvement.
  const int64_t stall_window = std::max<int64_t>(256, 4LL * n);
  double best_violation = std::numeric_limits<double>::infinity();
  std::vector<std::pair<int, int>> swap_history;
  size_t best_history_size = 0;
  int64_t swaps_since_best = 0;
  // On a stall the search is kicked from the best state with a few random
  // crossing swaps (simulated-annealing style) before giving up for good.
  int restarts_left = 6;

  // Applies a position swap to the ranking AND every grouping's
  // incremental state (favored counts + position index). Also used to
  // *undo* history entries — a swap is its own inverse.
  auto apply_swap = [&](int p, int q) {
    const CandidateId u = r.At(p);
    const CandidateId v = r.At(q);
    const int64_t dist = q - p;
    for (GroupingState& s : states) {
      const int a = s.grouping->group_of[u];
      const int b = s.grouping->group_of[v];
      if (a == b) continue;
      // A swap across distance d transfers exactly d favored mixed pairs
      // from the upper candidate's group to the lower one's (all other
      // groups' gains against u cancel their losses against v).
      s.favored[a] -= dist;
      s.favored[b] += dist;
      if (indexed) {
        s.positions[a].Move(p, q);
        s.positions[b].Move(q, p);
      }
    }
    r.SwapPositions(p, q);
  };
  auto rewind_to_best = [&]() {
    while (swap_history.size() > best_history_size) {
      const auto [hp, hq] = swap_history.back();
      swap_history.pop_back();
      apply_swap(hp, hq);
    }
  };

  struct Candidate {
    double parity;
    size_t state_index;
    int gh, gl;
  };
  // Per-iteration scratch, hoisted so the loop does not allocate.
  std::vector<Candidate> violating;
  std::vector<int> by_fpr;

  constexpr double kTol = 1e-12;
  while (result.swaps < max_swaps) {
    // The reference engine recomputes every score from the ranking before
    // each decision, exactly as Algorithm 2 is written.
    if (!indexed) {
      for (GroupingState& s : states) {
        s.favored = GroupFavoredPairs(r, *s.grouping);
      }
    }
    // Order violating groupings by parity, descending (paper: correct the
    // attribute with the maximum ARP/IRP first).
    violating.clear();
    double max_violation = 0.0;
    for (size_t i = 0; i < states.size(); ++i) {
      double parity;
      int gh, gl;
      states[i].Parity(&parity, &gh, &gl);
      max_violation =
          std::max(max_violation, parity - states[i].threshold);
      if (parity > states[i].threshold + kTol) {
        violating.push_back({parity, i, gh, gl});
      }
    }
    if (violating.empty()) {
      result.satisfied = true;
      return result;
    }
    if (max_violation < best_violation - kTol) {
      best_violation = max_violation;
      best_history_size = swap_history.size();
      swaps_since_best = 0;
    } else if (++swaps_since_best > stall_window) {
      rewind_to_best();
      if (restarts_left-- <= 0) {
        result.satisfied = false;
        return result;
      }
      // Kick: a handful of random crossing swaps on the worst grouping to
      // escape the plateau, then resume the greedy from there.
      tabu.Clear();
      for (int kick = 0; kick < 8; ++kick) {
        double parity;
        int worst = -1, gh = 0, gl = 0;
        double worst_violation = kTol;
        for (size_t i = 0; i < states.size(); ++i) {
          int hi, lo;
          states[i].Parity(&parity, &hi, &lo);
          if (parity - states[i].threshold > worst_violation) {
            worst_violation = parity - states[i].threshold;
            worst = static_cast<int>(i);
            gh = hi;
            gl = lo;
          }
        }
        if (worst < 0) break;
        int kp, kq;
        if (!random_swap(states[worst], gh, gl, &kp, &kq)) break;
        apply_swap(kp, kq);
        swap_history.emplace_back(kp, kq);
        ++result.swaps;
      }
      swaps_since_best = 0;
      continue;
    }
    // Ties break by grouping index, as a stable sort by parity would.
    std::sort(violating.begin(), violating.end(),
              [](const Candidate& a, const Candidate& b) {
                return a.parity > b.parity ||
                       (a.parity == b.parity && a.state_index < b.state_index);
              });
    // Take the worst grouping that still admits a corrective swap. The
    // paper's pair is (argmax FPR, argmin FPR); when it is blocked or
    // keeps cycling (tabu), the neighbourhood extends to lowering the max
    // group past any other group, or raising the min group past any other
    // — both strictly shrink the violating gap.
    int p = -1, q = -1;
    bool found = false;
    for (const Candidate& c : violating) {
      const GroupingState& s = states[c.state_index];
      if (options.swap_policy != MakeMrFairOptions::SwapPolicy::kPaper) {
        found = random_swap(s, c.gh, c.gl, &p, &q);
        if (found) break;
        continue;
      }
      auto try_pair = [&](int hi, int lo) {
        found = hi != lo && s.Fpr(hi) > s.Fpr(lo) &&
                paper_swap(s, hi, lo, &p, &q);
      };
      try_pair(c.gh, c.gl);
      // Then (max, next-lowest...) and (next-highest..., min), two per
      // round, over groups ordered by FPR (ascending, ties by index).
      constexpr size_t kMaxPairsTried = 9;
      const size_t groups = static_cast<size_t>(s.grouping->num_groups());
      if (!found) {
        by_fpr.resize(groups);
        std::iota(by_fpr.begin(), by_fpr.end(), 0);
        std::sort(by_fpr.begin(), by_fpr.end(), [&](int a, int b) {
          const double fa = s.Fpr(a), fb = s.Fpr(b);
          return fa < fb || (fa == fb && a < b);
        });
        for (size_t i = 1; 2 * i < kMaxPairsTried && i + 1 < groups && !found;
             ++i) {
          try_pair(c.gh, by_fpr[i]);
          if (!found) try_pair(by_fpr[groups - 1 - i], c.gl);
        }
      }
      if (found) break;
    }
    if (!found) {
      // No violating grouping can be improved by a swap.
      result.satisfied = false;
      return result;
    }
    const CandidateId u = r.At(p);  // moves down to q
    const CandidateId v = r.At(q);  // moves up to p
    apply_swap(p, q);
    swap_history.emplace_back(p, q);
    ++result.swaps;
    tabu.Push(u, v);
  }
  // Swap budget exhausted; keep whichever configuration (current vs best
  // seen) has the smaller maximum violation, then report honestly.
  double current_violation = -std::numeric_limits<double>::infinity();
  for (const GroupingState& s : states) {
    current_violation = std::max(
        current_violation, RankParity(r, *s.grouping) - s.threshold);
  }
  if (current_violation > best_violation + kTol) rewind_to_best();
  result.satisfied = SatisfiesCriteria(r, criteria);
  return result;
}

}  // namespace manirank
