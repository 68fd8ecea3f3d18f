#include "measures/measure.h"

#include "common/check.h"
#include "lp/covering.h"

namespace dbim {

const ViolationSet& MeasureContext::violations() {
  std::call_once(violations_once_, [&] {
    if (!violations_) violations_ = detector_.FindViolations(db_);
  });
  return *violations_;
}

const ConflictGraph& MeasureContext::conflict_graph() {
  std::call_once(conflict_graph_once_, [&] {
    conflict_graph_ = ConflictGraph::Build(db_, violations());
  });
  return *conflict_graph_;
}

const FractionalVcResult& MeasureContext::fractional_cover() {
  std::call_once(fractional_cover_once_, [&] {
    const ConflictGraph& cg = conflict_graph();
    if (cg.HasHyperedges()) {
      LpSolution lp = SolveCoveringLpRelaxation(cg.ToCovering());
      DBIM_CHECK_MSG(lp.status == LpStatus::kOptimal,
                     "covering LP unsolved (status %d)",
                     static_cast<int>(lp.status));
      fractional_cover_ = FractionalVcResult{lp.objective, std::move(lp.x)};
      return;
    }
    // A self-inconsistent vertex is isolated in the graph, so the flow
    // leaves it at 0; its singleton set forces it to 1.
    FractionalVcResult cover = FractionalVertexCover(cg.graph(), cg.weights());
    double forced = 0.0;
    for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
      if (cg.self_inconsistent()[v]) {
        forced += cg.weights()[v];
        cover.x[v] = 1.0;
      }
    }
    cover.value += forced;
    fractional_cover_ = std::move(cover);
  });
  return *fractional_cover_;
}

void MeasureContext::Materialize() {
  conflict_graph();  // transitively materializes violations()
}

}  // namespace dbim
