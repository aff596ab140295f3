#include "core/fair_kemeny.h"

#include <utility>
#include <vector>

#include "core/aggregators.h"
#include "core/kemeny.h"
#include "core/make_mr_fair.h"
#include "lp/linear_ordering.h"

namespace manirank {
namespace {

/// Groupings actively constrained under the options (Fig. 3 ablations can
/// disable either family), with their thresholds.
std::vector<std::pair<const Grouping*, double>> ActiveGroupings(
    const CandidateTable& table, const FairKemenyOptions& options,
    const ManiRankThresholds& thresholds) {
  std::vector<std::pair<const Grouping*, double>> active;
  if (options.constrain_attributes) {
    for (int a = 0; a < table.num_attributes(); ++a) {
      active.push_back(
          {&table.attribute_grouping(a), thresholds.attribute_delta[a]});
    }
  }
  if (options.constrain_intersection && table.num_attributes() > 1) {
    active.push_back(
        {&table.intersection_grouping(), thresholds.intersection_delta});
  }
  for (const FairnessCriterion& extra : options.extra_criteria) {
    active.push_back({extra.grouping, extra.threshold});
  }
  return active;
}

bool SatisfiesActive(
    const Ranking& r,
    const std::vector<std::pair<const Grouping*, double>>& active) {
  for (const auto& [grouping, delta] : active) {
    if (RankParity(r, *grouping) > delta + 1e-12) return false;
  }
  return true;
}

/// Emits Eq. (11)/(12) for one pair of groups: |FPR_i - FPR_j| <= delta,
/// linearised as two <= constraints over the pair variables Y[a][b].
void AddFprGapConstraints(lp::LinearOrderingProblem* problem,
                          const Grouping& grouping, int gi, int gj, int n,
                          double delta) {
  std::vector<lp::LinearOrderingProblem::PairTerm> terms;
  auto emit_group = [&](int g, double sign) {
    const double scale =
        sign / static_cast<double>(MixedPairs(grouping.group_size(g), n));
    std::vector<bool> in_group(n, false);
    for (CandidateId c : grouping.members[g]) in_group[c] = true;
    for (CandidateId a : grouping.members[g]) {
      for (CandidateId b = 0; b < n; ++b) {
        if (!in_group[b]) terms.push_back({a, b, scale});
      }
    }
  };
  emit_group(gi, +1.0);
  emit_group(gj, -1.0);
  problem->AddPairConstraint(terms, lp::Sense::kLessEqual, delta);
  for (auto& t : terms) t.coefficient = -t.coefficient;
  problem->AddPairConstraint(terms, lp::Sense::kLessEqual, delta);
}

}  // namespace

lp::LinearOrderingProblem BuildFairKemenyProblem(
    const PrecedenceMatrix& w, const CandidateTable& table,
    const FairKemenyOptions& options) {
  const int n = w.size();
  const ManiRankThresholds thresholds =
      options.thresholds.value_or(
          ManiRankThresholds::Uniform(table.num_attributes(), options.delta));
  lp::LinearOrderingProblem problem(w.ToDense());
  for (const auto& [grouping, delta] :
       ActiveGroupings(table, options, thresholds)) {
    for (int gi = 0; gi < grouping->num_groups(); ++gi) {
      if (MixedPairs(grouping->group_size(gi), n) == 0) continue;
      for (int gj = gi + 1; gj < grouping->num_groups(); ++gj) {
        if (MixedPairs(grouping->group_size(gj), n) == 0) continue;
        AddFprGapConstraints(&problem, *grouping, gi, gj, n, delta);
      }
    }
  }
  return problem;
}

FairKemenyResult FairKemenyAggregate(const PrecedenceMatrix& w,
                                     const CandidateTable& table,
                                     const FairKemenyOptions& options) {
  FairKemenyResult result;
  const ManiRankThresholds thresholds =
      options.thresholds.value_or(
          ManiRankThresholds::Uniform(table.num_attributes(), options.delta));
  const auto active = ActiveGroupings(table, options, thresholds);

  // Fast path: if the unconstrained Kemeny optimum (transitive majority
  // digraph) already satisfies every active constraint it is optimal here
  // too, since the fairness constraints only shrink the feasible set.
  {
    Ranking transitive;
    if (TryTransitiveKemeny(w, &transitive) &&
        SatisfiesActive(transitive, active)) {
      result.ranking = std::move(transitive);
      result.optimal = true;
      result.feasible = true;
      result.cost = w.KemenyCost(result.ranking);
      return result;
    }
  }

  lp::LinearOrderingProblem problem = BuildFairKemenyProblem(w, table, options);

  lp::LinearOrderingProblem::SolveOptions solve;
  solve.max_nodes = options.max_nodes;
  solve.time_limit_seconds = options.time_limit_seconds;
  // Incumbent heuristic: round the fractional LP point to a ranking and
  // repair it with Make-MR-Fair so it satisfies the fairness constraints.
  // The incumbent repair targets exactly the ACTIVE criteria set so that
  // constraint-family ablations (attributes-only / intersection-only)
  // remain faithful: repairing inactive families would silently tighten
  // the reported solution beyond the model's constraints.
  std::vector<FairnessCriterion> active_criteria;
  for (const auto& [grouping, delta] : active) {
    active_criteria.push_back({grouping, delta});
  }
  solve.repair_order = [&](std::vector<int> order) {
    MakeMrFairOptions mmf;
    mmf.use_standard_criteria = false;
    mmf.extra_criteria = active_criteria;
    std::vector<CandidateId> ids(order.begin(), order.end());
    MakeMrFairResult repaired = MakeMrFair(Ranking(std::move(ids)), table, mmf);
    return std::vector<int>(repaired.ranking.order().begin(),
                            repaired.ranking.order().end());
  };

  lp::LinearOrderingProblem::Result ilp = problem.Solve(solve);
  result.ilp_nodes = ilp.nodes_explored;
  result.ilp_cuts = ilp.cuts_added;
  result.feasible = ilp.has_solution;
  if (ilp.has_solution) {
    std::vector<CandidateId> ids(ilp.order.begin(), ilp.order.end());
    result.ranking = Ranking(std::move(ids));
    result.optimal = ilp.status == lp::SolveStatus::kOptimal;
    result.cost = w.KemenyCost(result.ranking);
  } else {
    // Delta proven infeasible, or the budget ran out before the search
    // produced an incumbent (huge instances): fall back to the
    // locally-optimised Copeland consensus repaired by Make-MR-Fair — the
    // same construction the heuristic incumbent would have used — so the
    // caller always gets a full ranking, flagged by `feasible`.
    Ranking start = CopelandAggregate(w);
    LocalKemenyImprove(w, &start);
    MakeMrFairOptions mmf;
    mmf.use_standard_criteria = false;
    for (const auto& [grouping, delta] : active) {
      mmf.extra_criteria.push_back({grouping, delta});
    }
    MakeMrFairResult repaired = MakeMrFair(start, table, mmf);
    result.ranking = std::move(repaired.ranking);
    // A kInfeasible verdict is a proof — a deterministic property of the
    // profile, so the outcome is settled; a budget exit without an
    // incumbent is merely "not found within budget".
    const bool proven_infeasible = ilp.status == lp::SolveStatus::kInfeasible;
    result.feasible = !proven_infeasible && repaired.satisfied;
    result.optimal = proven_infeasible;
    result.cost = w.KemenyCost(result.ranking);
  }
  return result;
}

}  // namespace manirank
