#ifndef MANIRANK_CORE_FAIR_KEMENY_H_
#define MANIRANK_CORE_FAIR_KEMENY_H_

#include <optional>

#include "core/candidate_table.h"
#include "core/fairness_metrics.h"
#include "core/precedence.h"
#include "core/ranking.h"
#include "lp/linear_ordering.h"

namespace manirank {

struct FairKemenyOptions {
  /// Proximity-to-parity parameter Delta (Definition 7).
  double delta = 0.1;
  /// Per-grouping thresholds override `delta` when set.
  std::optional<ManiRankThresholds> thresholds;
  /// Additional fairness criteria beyond the attribute/intersection set,
  /// e.g. subset-of-attribute intersections (§II-B). Groupings must
  /// outlive the call.
  std::vector<FairnessCriterion> extra_criteria;
  /// Include Eq. (11): one |FPR_i - FPR_j| <= Delta constraint per pair of
  /// groups of every protected attribute. Disabling this yields the
  /// "intersection only" ablation of Fig. 3(b).
  bool constrain_attributes = true;
  /// Include Eq. (12): the same for intersectional groups. Disabling this
  /// yields the "protected attribute only" ablation of Fig. 3(a).
  bool constrain_intersection = true;
  /// ILP budget.
  long max_nodes = 1000000;
  double time_limit_seconds = 0.0;
};

struct FairKemenyResult {
  /// Always a full permutation. Without an ILP solution (Delta proven
  /// infeasible, or budget exhausted) it is the Make-MR-Fair-repaired
  /// Copeland fallback.
  Ranking ranking;
  /// The search settled within budget: proved optimal under the
  /// constraints, or (with `feasible` false) proved Delta infeasible.
  /// False means the budget ran out and the ranking depends on it.
  bool optimal = false;
  /// A feasible ranking was found (the ILP can be infeasible when Delta is
  /// smaller than the best parity achievable with the given group sizes).
  bool feasible = false;
  double cost = 0.0;
  long ilp_nodes = 0;
  int ilp_cuts = 0;
};

/// Fair-Kemeny (Algorithm 1): the exact Kemeny integer program with
/// MANI-Rank group fairness as hard linear constraints, solved with the
/// in-repo branch & bound + lazy-triangle engine (the paper uses CPLEX).
///
/// The heuristic incumbent at every node rounds the fractional LP point to
/// a ranking and repairs it with Make-MR-Fair, which gives the search an
/// excellent feasible upper bound almost immediately.
FairKemenyResult FairKemenyAggregate(const PrecedenceMatrix& w,
                                     const CandidateTable& table,
                                     const FairKemenyOptions& options = {});

/// Builds the Fair-Kemeny linear-ordering problem (objective = Kemeny,
/// constraints = Eqs. 11/12 at the options' thresholds) without solving.
/// Exposed for tests and diagnostics.
lp::LinearOrderingProblem BuildFairKemenyProblem(
    const PrecedenceMatrix& w, const CandidateTable& table,
    const FairKemenyOptions& options = {});

}  // namespace manirank

#endif  // MANIRANK_CORE_FAIR_KEMENY_H_
