#ifndef DBIM_MEASURES_REPAIR_MEASURES_H_
#define DBIM_MEASURES_REPAIR_MEASURES_H_

#include <string>
#include <vector>

#include "measures/measure.h"

namespace dbim {

struct RepairMeasureOptions {
  /// Wall-clock budget for the exact branch & bound of I_R; an expired
  /// search returns the best cover found (an upper bound). 0 disables.
  double deadline_seconds = 0.0;
};

/// I_R under the subset repair system R_subset — the minimum total cost of
/// tuple deletions reaching consistency (cardinality/optimal repairs). The
/// only classical measure satisfying all four properties; NP-hard in
/// general (paper Theorem 1 pins the frontier already for single EGDs).
///
/// Computation: a minimum weighted vertex cover of the conflict graph,
/// kernelized by the context's fractional cover (the LP I_lin_R reads):
/// its 1-vertices, self-inconsistent facts among them, are deleted, and
/// exact branch & bound runs on each component of its 1/2-vertices only.
/// With minimal witnesses of size >= 3 it is the covering ILP of
/// ConflictGraph::ToCovering instead.
class MinRepairMeasure : public InconsistencyMeasure {
 public:
  explicit MinRepairMeasure(RepairMeasureOptions options = {})
      : options_(options) {}

  std::string name() const override { return "I_R"; }
  double Evaluate(MeasureContext& context) const override;

  /// Also exposes one optimal repair: the fact ids whose deletion reaches
  /// consistency at minimum cost.
  std::vector<FactId> OptimalRepair(MeasureContext& context) const;

 private:
  RepairMeasureOptions options_;
};

/// I_lin_R — the paper's new measure (Section 5.2): the optimum of the LP
/// relaxation of the minimum-repair ILP of Figure 2. Rational (satisfies
/// all four properties, Theorem 2) and computable in polynomial time for
/// arbitrary DC sets.
///
/// Computation: reads MeasureContext::fractional_cover(), solved once per
/// context — the max-flow fractional vertex cover on the bipartite double
/// cover for binary witnesses, with self-inconsistent facts at x = 1 (their
/// singleton set forces it), or the simplex when hyperedges occur.
class LinRepairMeasure : public InconsistencyMeasure {
 public:
  std::string name() const override { return "I_lin_R"; }
  double Evaluate(MeasureContext& context) const override;

  /// The optimal fractional deletion x_i per problematic fact (pairs of
  /// fact id and LP value). Used by the repair-prioritization example.
  std::vector<std::pair<FactId, double>> FractionalSolution(
      MeasureContext& context) const;
};

}  // namespace dbim

#endif  // DBIM_MEASURES_REPAIR_MEASURES_H_
