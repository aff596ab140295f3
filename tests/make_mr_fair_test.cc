#include "core/make_mr_fair.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/aggregators.h"
#include "core/distance.h"
#include "data/synthetic.h"
#include "mallows/mallows.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

CandidateTable SegregatedBinaryTable(int n) {
  std::vector<Attribute> attrs = {{"G", {"top", "bottom"}}};
  std::vector<std::vector<AttributeValue>> values(n, std::vector<AttributeValue>(1));
  for (int c = 0; c < n; ++c) values[c][0] = c < n / 2 ? 0 : 1;
  return CandidateTable(std::move(attrs), std::move(values));
}

TEST(MakeMrFairTest, AlreadyFairRankingIsUntouched) {
  CandidateTable t = SegregatedBinaryTable(8);
  Ranking interleaved({0, 4, 1, 5, 2, 6, 3, 7});
  MakeMrFairOptions options;
  options.delta = 0.5;
  MakeMrFairResult r = MakeMrFair(interleaved, t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_EQ(r.swaps, 0);
  EXPECT_EQ(r.ranking, interleaved);
}

TEST(MakeMrFairTest, RepairsFullySegregatedRanking) {
  CandidateTable t = SegregatedBinaryTable(10);
  Ranking segregated = Ranking::Identity(10);  // ARP = 1.0
  MakeMrFairOptions options;
  options.delta = 0.1;
  MakeMrFairResult r = MakeMrFair(segregated, t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_GT(r.swaps, 0);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.1));
}

TEST(MakeMrFairTest, DeltaZeroAchievesExactParityWhenPossible) {
  // Equal-size binary groups, even interleave exists: delta = 0 feasible.
  CandidateTable t = SegregatedBinaryTable(8);
  MakeMrFairOptions options;
  options.delta = 0.0;
  MakeMrFairResult r = MakeMrFair(Ranking::Identity(8), t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_NEAR(RankParity(r.ranking, t.attribute_grouping(0)), 0.0, 1e-12);
}

TEST(MakeMrFairTest, MultiAttributeIntersectionGetsRepaired) {
  // 24 candidates, 2x3 attributes; start from the worst case (sorted by
  // intersection cell).
  CandidateTable t = testing::CyclicTable(24, 2, 3);
  std::vector<CandidateId> order(24);
  // Sort candidates so equal cells are contiguous: strongly unfair.
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](CandidateId a, CandidateId b) {
    return t.intersection_grouping().group_of[a] <
           t.intersection_grouping().group_of[b];
  });
  MakeMrFairOptions options;
  options.delta = 0.15;
  MakeMrFairResult r = MakeMrFair(Ranking(std::move(order)), t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.15));
}

TEST(MakeMrFairTest, PerAttributeThresholds) {
  CandidateTable t = testing::CyclicTable(24, 2, 2);
  Rng rng(5);
  Ranking start = testing::RandomRanking(24, &rng);
  MakeMrFairOptions options;
  ManiRankThresholds thresholds;
  thresholds.attribute_delta = {0.05, 0.5};
  thresholds.intersection_delta = 0.5;
  options.thresholds = thresholds;
  MakeMrFairResult r = MakeMrFair(start, t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_LE(RankParity(r.ranking, t.attribute_grouping(0)), 0.05 + 1e-9);
}

TEST(MakeMrFairTest, SwapBudgetIsHonoured) {
  CandidateTable t = SegregatedBinaryTable(20);
  MakeMrFairOptions options;
  options.delta = 0.01;
  options.max_swaps = 1;
  MakeMrFairResult r = MakeMrFair(Ranking::Identity(20), t, options);
  EXPECT_LE(r.swaps, 1);
  EXPECT_FALSE(r.satisfied);
}

TEST(MakeMrFairTest, EachSwapImprovesTargetParity) {
  // Instrumented run: repair with max_swaps = k for growing k and check
  // the worst parity never increases.
  CandidateTable t = testing::CyclicTable(18, 3, 2);
  Rng rng(9);
  Ranking start = testing::RandomRanking(18, &rng);
  double prev = EvaluateFairness(start, t).MaxParity();
  for (int64_t k = 1; k <= 30; ++k) {
    MakeMrFairOptions options;
    options.delta = 0.02;
    options.max_swaps = k;
    MakeMrFairResult r = MakeMrFair(start, t, options);
    const double worst = EvaluateFairness(r.ranking, t).MaxParity();
    EXPECT_LE(worst, prev + 0.25) << "parity should trend down";
    if (r.satisfied) break;
    prev = std::max(prev, worst);
  }
}

TEST(MakeMrFairTest, PreservesWithinGroupOrder) {
  // The paper's swaps exchange members of different groups; candidates of
  // the same intersection cell never swap, so their relative order is
  // preserved from the input consensus.
  CandidateTable t = testing::CyclicTable(24, 2, 2);
  Rng rng(11);
  Ranking start = testing::RandomRanking(24, &rng);
  MakeMrFairOptions options;
  options.delta = 0.05;
  MakeMrFairResult r = MakeMrFair(start, t, options);
  const Grouping& inter = t.intersection_grouping();
  for (int g = 0; g < inter.num_groups(); ++g) {
    const auto& members = inter.members[g];
    for (size_t i = 0; i < members.size(); ++i) {
      for (size_t j = i + 1; j < members.size(); ++j) {
        EXPECT_EQ(start.Prefers(members[i], members[j]),
                  r.ranking.Prefers(members[i], members[j]))
            << "within-cell order changed";
      }
    }
  }
}

struct EngineParam {
  int n;
  int d0, d1;
  double delta;
  uint64_t seed;
  MakeMrFairOptions::SwapPolicy policy = MakeMrFairOptions::SwapPolicy::kPaper;
};

class EngineEquivalenceTest : public ::testing::TestWithParam<EngineParam> {};

TEST_P(EngineEquivalenceTest, ReferenceAndIndexedEnginesAgree) {
  const EngineParam& p = GetParam();
  Rng rng(p.seed);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  for (int trial = 0; trial < 5; ++trial) {
    Ranking start = testing::RandomRanking(p.n, &rng);
    MakeMrFairOptions reference;
    reference.delta = p.delta;
    reference.engine = MakeMrFairOptions::Engine::kReference;
    reference.swap_policy = p.policy;
    MakeMrFairOptions indexed = reference;
    indexed.engine = MakeMrFairOptions::Engine::kIndexed;
    MakeMrFairResult a = MakeMrFair(start, t, reference);
    MakeMrFairResult b = MakeMrFair(start, t, indexed);
    ASSERT_EQ(a.ranking, b.ranking)
        << "engines diverged, seed=" << p.seed << " trial=" << trial;
    EXPECT_EQ(a.swaps, b.swaps);
    EXPECT_EQ(a.satisfied, b.satisfied);
  }
}

TEST_P(EngineEquivalenceTest, ResultSatisfiesDeltaOrReportsFailure) {
  const EngineParam& p = GetParam();
  Rng rng(p.seed + 1);
  CandidateTable t = testing::RandomTable(p.n, {p.d0, p.d1}, &rng);
  Ranking start = testing::RandomRanking(p.n, &rng);
  MakeMrFairOptions options;
  options.delta = p.delta;
  options.swap_policy = p.policy;
  MakeMrFairResult r = MakeMrFair(start, t, options);
  EXPECT_EQ(r.satisfied, SatisfiesManiRank(r.ranking, t, p.delta));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineEquivalenceTest,
    ::testing::Values(EngineParam{12, 2, 2, 0.2, 1000},
                      EngineParam{20, 2, 3, 0.15, 2000},
                      EngineParam{30, 3, 3, 0.1, 3000},
                      EngineParam{45, 5, 3, 0.1, 4000},
                      EngineParam{60, 2, 2, 0.05, 5000},
                      EngineParam{24, 4, 2, 0.25, 6000}));

// Tight thresholds: delta = 0 and 0.01 drive the overshoot safeguard, tabu
// aspiration and the stall kick, which the looser shapes above rarely reach.
INSTANTIATE_TEST_SUITE_P(
    TightDelta, EngineEquivalenceTest,
    ::testing::Values(
        EngineParam{21, 2, 2, 0.0, 7000},
        EngineParam{40, 3, 2, 0.0, 7100},
        EngineParam{64, 4, 3, 0.01, 7200},
        EngineParam{97, 2, 3, 0.01, 7300},
        EngineParam{33, 3, 3, 0.0, 7400,
                    MakeMrFairOptions::SwapPolicy::kRandomPair},
        EngineParam{75, 4, 2, 0.01, 7500,
                    MakeMrFairOptions::SwapPolicy::kRandomPair}));

/// FNV-1a over the output order, four little-endian bytes per id.
uint64_t OrderHash(const Ranking& r) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < r.size(); ++i) {
    const uint32_t id = static_cast<uint32_t>(r.At(i));
    for (int b = 0; b < 4; ++b) {
      h ^= (id >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct GoldenCase {
  int n;
  double delta;
  MakeMrFairOptions::SwapPolicy policy;
  int64_t swaps;
  bool satisfied;
  uint64_t hash;
};

// Output of the serving benchmark's A3 repair shape (Borda of a theta = 0.05
// Mallows profile around the biased modal of a CYCLIC 4x3 table), pinned
// so a change that moves both engines together still fails. Values were
// recorded with the std::set-indexed engine the bitset index replaced.
TEST(MakeMrFairTest, GoldenOutputsOnServingShapedInputs) {
  constexpr auto kPaper = MakeMrFairOptions::SwapPolicy::kPaper;
  constexpr auto kRandom = MakeMrFairOptions::SwapPolicy::kRandomPair;
  const GoldenCase cases[] = {
      {200, 0.1, kPaper, 2256, true, 0x60addd5d59427e83ULL},
      {200, 0.01, kPaper, 2450, true, 0xf0703c0e3e549fd3ULL},
      {200, 0.0, kPaper, 8135, false, 0x51c608b47149e1a3ULL},
      {200, 0.1, kRandom, 52, true, 0x232ce2582cc03dd3ULL},
      {200, 0.0, kRandom, 6113, false, 0xc8b2eeacd8c296c3ULL},
      {1000, 0.1, kPaper, 69951, true, 0x8f473e8a87bee21bULL},
      {1000, 0.01, kPaper, 82871, true, 0x1e8084b690a9b9d3ULL},
      {1000, 0.0, kPaper, 111318, false, 0x150cf372e3d5f167ULL},
      {1000, 0.01, kRandom, 363, true, 0x905a6efb7bbfd2f7ULL},
  };
  for (const GoldenCase& c : cases) {
    const CandidateTable table = MakeCyclicTable(c.n, 4, 3);
    const Ranking start = BordaAggregate(
        MallowsModel(MakeCyclicBiasedModal(c.n, 4, 3), 0.05)
            .SampleMany(100, 1000 + c.n));
    MakeMrFairOptions options;
    options.delta = c.delta;
    options.swap_policy = c.policy;
    const MakeMrFairResult r = MakeMrFair(start, table, options);
    EXPECT_EQ(r.swaps, c.swaps) << "n=" << c.n << " delta=" << c.delta;
    EXPECT_EQ(r.satisfied, c.satisfied) << "n=" << c.n << " delta=" << c.delta;
    EXPECT_EQ(OrderHash(r.ranking), c.hash)
        << "n=" << c.n << " delta=" << c.delta << " hash=0x" << std::hex
        << OrderHash(r.ranking);
  }
}

// Small random tables at tight thresholds, where the anti-cycling tabu
// list's exact FIFO-and-set semantics decide the output. Both engines
// share that list, so only a pin catches a change to it.
TEST(MakeMrFairTest, GoldenOutputsOnTightRandomTables) {
  struct TightCase {
    int n;
    std::vector<int> domains;
    double delta;
    uint64_t seed;
    int64_t swaps;
    bool satisfied;
    uint64_t hash;
  };
  const TightCase cases[] = {
      {20, {2, 3}, 0.0, 47514, 190, false, 0xfc8bdfa667086993ULL},
      {30, {3, 2}, 0.0, 23757, 435, false, 0x5cf07590a94f8122ULL},
      {40, {4, 2}, 0.01, 15838, 780, false, 0x7729eb08c91d3a53ULL},
  };
  for (const TightCase& c : cases) {
    Rng rng(c.seed);
    const CandidateTable table = testing::RandomTable(c.n, c.domains, &rng);
    const Ranking start = testing::RandomRanking(c.n, &rng);
    MakeMrFairOptions options;
    options.delta = c.delta;
    const MakeMrFairResult r = MakeMrFair(start, table, options);
    EXPECT_EQ(r.swaps, c.swaps) << "seed=" << c.seed;
    EXPECT_EQ(r.satisfied, c.satisfied) << "seed=" << c.seed;
    EXPECT_EQ(OrderHash(r.ranking), c.hash) << "seed=" << c.seed;
  }
}

TEST(MakeMrFairTest, RandomPairPolicyAlsoRepairs) {
  CandidateTable t = SegregatedBinaryTable(16);
  MakeMrFairOptions options;
  options.delta = 0.1;
  options.swap_policy = MakeMrFairOptions::SwapPolicy::kRandomPair;
  options.seed = 99;
  MakeMrFairResult r = MakeMrFair(Ranking::Identity(16), t, options);
  EXPECT_TRUE(r.satisfied);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.1));
}

TEST(MakeMrFairTest, PdLossGrowsWithTighterDelta) {
  // Price of fairness: the tighter the threshold, the further the repaired
  // consensus drifts from the original (weak monotonicity up to noise).
  CandidateTable t = SegregatedBinaryTable(32);
  Ranking start = Ranking::Identity(32);
  std::vector<Ranking> base(3, start);
  double prev_loss = -1.0;
  for (double delta : {0.5, 0.3, 0.1, 0.02}) {
    MakeMrFairOptions options;
    options.delta = delta;
    MakeMrFairResult r = MakeMrFair(start, t, options);
    ASSERT_TRUE(r.satisfied) << "delta " << delta;
    const double loss = PdLoss(base, r.ranking);
    EXPECT_GE(loss, prev_loss - 1e-9) << "delta " << delta;
    prev_loss = loss;
  }
}

}  // namespace
}  // namespace manirank
