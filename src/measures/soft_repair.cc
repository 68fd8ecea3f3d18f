#include "measures/soft_repair.h"

#include "common/check.h"
#include "lp/covering.h"

namespace dbim {

double SoftRepairMeasure::Evaluate(MeasureContext& context) const {
  DBIM_CHECK(options_.violation_penalty >= 0.0);

  // Variables: one deletion per problematic fact, then one slack per
  // minimal inconsistent subset priced at the violation penalty. Each
  // covering set is its witness plus its own slack; choosing the slack
  // "pays the fine" instead of repairing.
  CoveringProblem problem = context.conflict_graph().ToCovering();
  for (auto& set : problem.sets) {
    set.push_back(static_cast<uint32_t>(problem.costs.size()));
    problem.costs.push_back(options_.violation_penalty);
  }

  if (problem.sets.empty()) return 0.0;
  const LpSolution lp = SolveCoveringLpRelaxation(problem);
  DBIM_CHECK(lp.status == LpStatus::kOptimal);
  if (options_.relaxed) return lp.objective;
  CoveringOptions covering_options;
  covering_options.deadline_seconds = options_.deadline_seconds;
  return SolveCoveringIlp(problem, lp.x, covering_options).value;
}

}  // namespace dbim
