#include "graph/fractional_vc.h"

#include "common/check.h"
#include "graph/cover_flow.h"

namespace dbim {

FractionalVcResult FractionalVertexCover(const SimpleGraph& g,
                                         const std::vector<double>& weights) {
  const size_t n = g.num_vertices();
  DBIM_CHECK(weights.size() == n);
  FractionalVcResult result{0.0, std::vector<double>(n, 0.0)};
  if (g.num_edges() == 0) return result;
  for (const double w : weights) DBIM_CHECK(w > 0.0);
  // A minimum cut of the double cover is a minimum-weight vertex cover of
  // it, and half of it an optimal (half-integral) fractional cover of g: v
  // takes 1/2 for v+ on the sink side and 1/2 for v- on the source side.
  const CoverCut cut = MinCoverCut(n, g.edges(), weights, weights);
  result.value = cut.flow / 2.0;
  for (uint32_t v = 0; v < n; ++v) {
    result.x[v] = (cut.source_side[v] ? 0.0 : 0.5) +
                  (cut.source_side[n + v] ? 0.5 : 0.0);
  }
  return result;
}

}  // namespace dbim
