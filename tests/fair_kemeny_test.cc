#include "core/fair_kemeny.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>

#include "core/kemeny.h"
#include "test_util.h"
#include "util/rng.h"

namespace manirank {
namespace {

/// Exhaustive constrained optimum: the cheapest ranking (Kemeny cost)
/// satisfying MANI-Rank at delta. n <= 8.
double BruteForceFairKemeny(const PrecedenceMatrix& w,
                            const CandidateTable& table, double delta,
                            bool* feasible) {
  const int n = w.size();
  std::vector<CandidateId> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = std::numeric_limits<double>::infinity();
  *feasible = false;
  do {
    Ranking r{std::vector<CandidateId>(perm)};
    if (!SatisfiesManiRank(r, table, delta)) continue;
    *feasible = true;
    best = std::min(best, w.KemenyCost(r));
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

TEST(FairKemenyTest, FastPathWhenUnconstrainedOptimumIsFair) {
  // Interleaved unanimous profile: Kemeny = shared ranking, already fair.
  CandidateTable t = testing::CyclicTable(8, 2, 2);
  Ranking shared({0, 1, 2, 3, 4, 5, 6, 7});  // cyclic values interleave
  std::vector<Ranking> base(3, shared);
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  FairKemenyOptions options;
  options.delta = 0.6;
  FairKemenyResult r = FairKemenyAggregate(w, t, options);
  ASSERT_TRUE(r.feasible);
  EXPECT_TRUE(r.optimal);
  EXPECT_EQ(r.ranking, shared);
}

TEST(FairKemenyTest, EnforcesDeltaOnBiasedProfile) {
  // Unanimously segregated profile; Fair-Kemeny must deviate.
  const int n = 8;
  std::vector<Attribute> attrs = {{"G", {"g0", "g1"}}};
  std::vector<std::vector<AttributeValue>> values(n, std::vector<AttributeValue>(1));
  for (int c = 0; c < n; ++c) values[c][0] = c < n / 2 ? 0 : 1;
  CandidateTable t(std::move(attrs), std::move(values));
  std::vector<Ranking> base(4, Ranking::Identity(n));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  FairKemenyOptions options;
  options.delta = 0.25;
  FairKemenyResult r = FairKemenyAggregate(w, t, options);
  ASSERT_TRUE(r.feasible);
  ASSERT_TRUE(r.optimal);
  EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, 0.25));
  bool feasible;
  EXPECT_DOUBLE_EQ(r.cost, BruteForceFairKemeny(w, t, 0.25, &feasible));
}

TEST(FairKemenyTest, InfeasibleDeltaDetected) {
  // Two candidates in different groups: FPRs are {1, 0} in any ranking, so
  // delta = 0.5 is unachievable.
  std::vector<Attribute> attrs = {{"G", {"g0", "g1"}}};
  std::vector<std::vector<AttributeValue>> values = {{0}, {1}};
  CandidateTable t(std::move(attrs), std::move(values));
  std::vector<Ranking> base = {Ranking::Identity(2)};
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  FairKemenyOptions options;
  options.delta = 0.5;
  FairKemenyResult r = FairKemenyAggregate(w, t, options);
  EXPECT_FALSE(r.feasible);
  // Proven infeasibility still yields the repaired fallback ranking.
  ASSERT_EQ(r.ranking.size(), 2);
  EXPECT_TRUE(Ranking::IsValidOrder(r.ranking.order()));
}

TEST(FairKemenyTest, AttributeOnlyAblationLeavesIntersectionFree) {
  CandidateTable t = testing::CyclicTable(12, 2, 2);
  Rng rng(3);
  std::vector<Ranking> base;
  for (int i = 0; i < 5; ++i) base.push_back(testing::RandomRanking(12, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  FairKemenyOptions attr_only;
  attr_only.delta = 0.1;
  attr_only.constrain_intersection = false;
  FairKemenyResult r = FairKemenyAggregate(w, t, attr_only);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(AttributeRankParity(r.ranking, t, 0), 0.1 + 1e-9);
  EXPECT_LE(AttributeRankParity(r.ranking, t, 1), 0.1 + 1e-9);
  // No assertion on IRP: it may exceed delta (that is the point of Fig 3a).
}

TEST(FairKemenyTest, IntersectionOnlyAblationConstrainsIrp) {
  CandidateTable t = testing::CyclicTable(12, 2, 2);
  Rng rng(5);
  std::vector<Ranking> base;
  for (int i = 0; i < 5; ++i) base.push_back(testing::RandomRanking(12, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  FairKemenyOptions inter_only;
  inter_only.delta = 0.2;
  inter_only.constrain_attributes = false;
  FairKemenyResult r = FairKemenyAggregate(w, t, inter_only);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(IntersectionRankParity(r.ranking, t), 0.2 + 1e-9);
}

TEST(FairKemenyTest, CostNeverBelowUnconstrainedKemeny) {
  Rng rng(7);
  CandidateTable t = testing::CyclicTable(10, 2, 2);
  std::vector<Ranking> base;
  for (int i = 0; i < 7; ++i) base.push_back(testing::RandomRanking(10, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  KemenyResult unconstrained = KemenyAggregate(w);
  FairKemenyOptions options;
  options.delta = 0.1;
  FairKemenyResult fair = FairKemenyAggregate(w, t, options);
  ASSERT_TRUE(fair.feasible);
  EXPECT_GE(fair.cost, unconstrained.cost - 1e-9);
}

struct FairKemenyParam {
  int n;
  int d0, d1;
  double delta;
  uint64_t seed;
};

class FairKemenyRandomTest : public ::testing::TestWithParam<FairKemenyParam> {};

TEST_P(FairKemenyRandomTest, MatchesConstrainedBruteForce) {
  const FairKemenyParam& p = GetParam();
  Rng rng(p.seed);
  CandidateTable t = testing::CyclicTable(p.n, p.d0, p.d1);
  std::vector<Ranking> base;
  const int m = 3 + static_cast<int>(rng.NextUint64(5));
  for (int i = 0; i < m; ++i) base.push_back(testing::RandomRanking(p.n, &rng));
  PrecedenceMatrix w = PrecedenceMatrix::Build(base);
  bool feasible;
  const double expected = BruteForceFairKemeny(w, t, p.delta, &feasible);
  FairKemenyOptions options;
  options.delta = p.delta;
  FairKemenyResult r = FairKemenyAggregate(w, t, options);
  EXPECT_EQ(r.feasible, feasible) << "seed " << p.seed;
  if (feasible) {
    ASSERT_TRUE(r.optimal) << "seed " << p.seed;
    EXPECT_NEAR(r.cost, expected, 1e-7) << "seed " << p.seed;
    EXPECT_TRUE(SatisfiesManiRank(r.ranking, t, p.delta));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, FairKemenyRandomTest,
    ::testing::Values(FairKemenyParam{6, 2, 2, 0.3, 1},
                      FairKemenyParam{6, 2, 2, 0.15, 2},
                      FairKemenyParam{7, 2, 2, 0.25, 3},
                      FairKemenyParam{8, 2, 2, 0.2, 4},
                      FairKemenyParam{8, 2, 2, 0.4, 5},
                      FairKemenyParam{6, 3, 2, 0.3, 6},
                      FairKemenyParam{8, 4, 2, 0.25, 7},
                      FairKemenyParam{7, 2, 2, 0.1, 8}));

}  // namespace
}  // namespace manirank
