#include "measures/repair_measures.h"

#include <utility>

#include "graph/vertex_cover.h"
#include "lp/covering.h"

namespace dbim {

namespace {

// A minimum-cost deletion set as (cost, membership per conflict-graph
// vertex): the vertex cover kernelized by the context's fractional cover,
// or the covering ILP when witnesses have size >= 3.
std::pair<double, std::vector<bool>> SolveRepair(MeasureContext& context,
                                                 double deadline_seconds) {
  const ConflictGraph& cg = context.conflict_graph();
  if (cg.HasHyperedges()) {
    CoveringOptions options;
    options.deadline_seconds = deadline_seconds;
    CoveringResult ilp = SolveCoveringIlp(
        cg.ToCovering(), context.fractional_cover().x, options);
    return {ilp.value, std::move(ilp.chosen)};
  }
  VertexCoverOptions options;
  options.deadline_seconds = deadline_seconds;
  VertexCoverResult cover = MinWeightVertexCover(
      cg.graph(), cg.weights(), context.fractional_cover().x, options);
  return {cover.value, std::move(cover.in_cover)};
}

}  // namespace

double MinRepairMeasure::Evaluate(MeasureContext& context) const {
  return SolveRepair(context, options_.deadline_seconds).first;
}

std::vector<FactId> MinRepairMeasure::OptimalRepair(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();
  const std::vector<bool> chosen =
      SolveRepair(context, options_.deadline_seconds).second;
  std::vector<FactId> repair;
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    if (chosen[v]) repair.push_back(cg.fact_of(v));
  }
  return repair;
}

double LinRepairMeasure::Evaluate(MeasureContext& context) const {
  return context.fractional_cover().value;
}

std::vector<std::pair<FactId, double>> LinRepairMeasure::FractionalSolution(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();
  const std::vector<double>& x = context.fractional_cover().x;
  std::vector<std::pair<FactId, double>> solution;
  for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
    solution.emplace_back(cg.fact_of(v), x[v]);
  }
  return solution;
}

}  // namespace dbim
