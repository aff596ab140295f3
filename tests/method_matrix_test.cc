// Cross-method invariant matrix: every consensus method of the study is
// run over a grid of dataset shapes and consensus strengths, and the
// universal contracts are checked on each cell. This is the repo's
// broadest property suite — it catches regressions in any aggregator,
// the repair loop, or the metrics at once.

#include <gtest/gtest.h>

#include <optional>

#include "manirank.h"
#include "test_util.h"

namespace manirank {
namespace {

struct MatrixParam {
  int per_cell;      // candidates per intersection cell
  int d0, d1;        // attribute domain sizes
  double bias;       // modal ARP target for both attributes
  double theta;      // Mallows spread
  double delta;      // fairness threshold
  uint64_t seed;
};

class MethodMatrixTest : public ::testing::TestWithParam<MatrixParam> {
 protected:
  void SetUp() override {
    const MatrixParam& p = GetParam();
    ModalDesignSpec spec;
    Attribute a0{"A", {}}, a1{"B", {}};
    for (int v = 0; v < p.d0; ++v) a0.values.push_back("a" + std::to_string(v));
    for (int v = 0; v < p.d1; ++v) a1.values.push_back("b" + std::to_string(v));
    spec.attributes = {a0, a1};
    spec.cell_counts.assign(static_cast<size_t>(p.d0) * p.d1, p.per_cell);
    spec.attribute_arp_target = {p.bias, p.bias};
    spec.irp_target = std::min(1.0, p.bias + 0.2);
    spec.tolerance = 0.08;
    spec.seed = p.seed;
    design_.emplace(DesignModalRanking(spec));
    MallowsModel model(design_->modal, p.theta);
    base_ = model.SampleMany(60, p.seed + 1);
  }

  std::optional<ModalDesignResult> design_;
  std::vector<Ranking> base_;
};

TEST_P(MethodMatrixTest, UniversalMethodContracts) {
  const MatrixParam& p = GetParam();
  ConsensusContext ctx(base_, design_->table);
  ConsensusOptions options;
  options.delta = p.delta;
  options.time_limit_seconds = 10.0;

  const int n = design_->table.num_candidates();
  double kemeny_loss = -1.0;
  for (const MethodSpec& method : AllMethods()) {
    ConsensusOutput out = method.run(ctx, options);
    // Contract 1: a permutation of 0..n-1, always.
    ASSERT_EQ(out.consensus.size(), n) << method.name;
    ASSERT_TRUE(testing::IsPermutationOfRange(out.consensus.order(), n))
        << method.name;
    // Contract 2: PD loss within [0, 1].
    const double loss = PdLoss(base_, out.consensus);
    ASSERT_GE(loss, 0.0) << method.name;
    ASSERT_LE(loss, 1.0) << method.name;
    // Contract 3: `satisfied` is truthful.
    ASSERT_EQ(out.satisfied,
              SatisfiesManiRank(out.consensus, design_->table, p.delta))
        << method.name;
    // Contract 4: exact Kemeny lower-bounds every method's PD loss.
    if (method.id == "B1" && out.exact) kemeny_loss = loss;
    if (kemeny_loss >= 0.0) {
      ASSERT_GE(loss, kemeny_loss - 1e-9) << method.name;
    }
    // Contract 5: fairness-aware polynomial methods must reach Delta on
    // these (feasible) configurations.
    if (method.fairness_aware && !method.uses_ilp) {
      EXPECT_TRUE(out.satisfied) << method.name << " failed to reach Delta";
    }
  }
}

TEST_P(MethodMatrixTest, RepairPreservesWithinGroupOrderForAllMethods) {
  const MatrixParam& p = GetParam();
  PrecedenceMatrix w = PrecedenceMatrix::Build(base_);
  MakeMrFairOptions options;
  options.delta = p.delta;
  const Grouping& inter = design_->table.intersection_grouping();
  for (FairAggregateResult result :
       {FairBorda(base_, design_->table, options),
        FairCopeland(w, design_->table, options),
        FairSchulze(w, design_->table, options)}) {
    for (int g = 0; g < inter.num_groups(); ++g) {
      const auto& members = inter.members[g];
      for (size_t i = 0; i < members.size(); ++i) {
        for (size_t j = i + 1; j < members.size(); ++j) {
          ASSERT_EQ(result.unfair_consensus.Prefers(members[i], members[j]),
                    result.fair_consensus.Prefers(members[i], members[j]))
              << "within-cell order not preserved";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MethodMatrixTest,
    ::testing::Values(
        MatrixParam{5, 2, 2, 0.5, 0.4, 0.15, 7001},
        MatrixParam{4, 2, 3, 0.5, 0.8, 0.20, 7002},
        MatrixParam{3, 3, 2, 0.4, 0.6, 0.20, 7003},
        MatrixParam{6, 2, 2, 0.7, 0.2, 0.15, 7004},
        MatrixParam{2, 4, 2, 0.3, 1.0, 0.25, 7005},
        MatrixParam{8, 2, 2, 0.6, 0.6, 0.10, 7006}));

}  // namespace
}  // namespace manirank
