#ifndef DBIM_LP_COVERING_H_
#define DBIM_LP_COVERING_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/simplex.h"

namespace dbim {

/// A weighted covering instance — exactly the ILP of the paper's Figure 2:
///
///   minimize  sum_i cost_i * x_i
///   s.t.      sum_{i in E} x_i >= 1   for every E in MI_Sigma(D)
///             x_i in {0, 1}
///
/// Variables are fact deletions; sets are minimal inconsistent subsets.
struct CoveringProblem {
  std::vector<double> costs;                // one per variable
  std::vector<std::vector<uint32_t>> sets;  // each sorted & deduplicated
};

struct CoveringOptions {
  /// Wall-clock budget for the branch & bound; 0 disables. On expiry the
  /// incumbent is returned with optimal == false.
  double deadline_seconds = 0.0;
};

struct CoveringResult {
  double value = 0.0;
  std::vector<bool> chosen;
  bool optimal = true;
  size_t bb_nodes = 0;
  size_t lp_solves = 0;  // simplex runs, the root's never among them
};

/// Exact 0/1 covering via branch & bound: unit-propagation of singleton
/// sets, LP-relaxation lower bounds (simplex), greedy incumbent, branching
/// on the most fractional LP variable. This is the general I_R solver for
/// denial constraints with minimal witnesses of any size; the vertex-cover
/// solver is the specialized (and faster) path when all sets have size two.
/// `root_x` is an optimal solution of the problem's LP relaxation
/// (SolveCoveringLpRelaxation), the root node's bound: at the root, unit
/// propagation forces only the singleton sets' variables, which the
/// relaxation sets to 1 too, so its other variables solve the root's own
/// LP and the root runs no simplex of its own.
CoveringResult SolveCoveringIlp(const CoveringProblem& problem,
                                const std::vector<double>& root_x,
                                const CoveringOptions& options = {});

/// The LP relaxation of the same instance (the definition of I_lin_R).
LpSolution SolveCoveringLpRelaxation(const CoveringProblem& problem);

}  // namespace dbim

#endif  // DBIM_LP_COVERING_H_
