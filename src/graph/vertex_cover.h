#ifndef DBIM_GRAPH_VERTEX_COVER_H_
#define DBIM_GRAPH_VERTEX_COVER_H_

#include <cstddef>
#include <vector>

#include "common/timer.h"
#include "graph/graph.h"

namespace dbim {

struct VertexCoverOptions {
  /// Wall-clock budget; expired searches return the best cover found so far
  /// with `optimal == false`. 0 disables the deadline.
  double deadline_seconds = 0.0;
};

struct VertexCoverResult {
  /// Total weight of the returned cover.
  double value = 0.0;

  /// Cover membership per vertex.
  std::vector<bool> in_cover;

  /// Whether the value is proven optimal.
  bool optimal = true;

  /// Branch-and-bound nodes explored (diagnostics / ablation bench).
  size_t bb_nodes = 0;
};

/// Exact minimum weighted vertex cover. This is the paper's I_R for denial
/// constraints whose minimal inconsistent subsets all have size two (FDs and
/// all the experiment DC sets), on the conflict graph.
///
/// `x` is a half-integral optimum of the fractional vertex-cover LP of `g`
/// (every entry 0, 1/2 or 1), such as FractionalVertexCover's, or the
/// MeasureContext's fractional cover, which also sets a self-inconsistent
/// (isolated) vertex to 1. Pipeline: Nemhauser–Trotter kernelization by
/// `x` (its 1-vertices join the cover, its 0-vertices stay out, only the
/// 1/2-vertices are branched on), connected components of that kernel,
/// then branch & bound per component on a maximum-degree vertex with the
/// fractional LP as lower bound and a greedy cover as incumbent.
VertexCoverResult MinWeightVertexCover(const SimpleGraph& g,
                                       const std::vector<double>& weights,
                                       const std::vector<double>& x,
                                       const VertexCoverOptions& options);

}  // namespace dbim

#endif  // DBIM_GRAPH_VERTEX_COVER_H_
