#ifndef DBIM_GRAPH_FRACTIONAL_VC_H_
#define DBIM_GRAPH_FRACTIONAL_VC_H_

#include <cstddef>
#include <vector>

#include "graph/graph.h"

namespace dbim {

/// Result of the fractional weighted vertex-cover LP
///   minimize   sum_v w_v x_v
///   subject to x_u + x_v >= 1 for every edge {u, v},  0 <= x <= 1.
struct FractionalVcResult {
  /// LP optimum.
  double value = 0.0;

  /// A half-integral optimal solution: every entry is 0, 1/2, or 1.
  std::vector<double> x;
};

/// Solves the LP exactly via its classical combinatorial characterization:
/// the optimum is half the weight of a minimum vertex cover of the bipartite
/// double cover, which is a minimum s-t cut (MinCoverCut: a greedy pass,
/// then Dinic). The LP always has a half-integral optimal solution, which
/// this returns.
///
/// x is read from the minimal minimum cut, which every maximum flow shares,
/// so it does not depend on the greedy start or on any warm start. The
/// value is half the flow summed in push order (not the sum of w_v * x_v),
/// so with non-integer weights its last bits follow that order.
///
/// MeasureContext::fractional_cover() solves it once per context on binary
/// denial constraints (I_lin_R, and the Nemhauser–Trotter kernel of exact
/// I_R); MinWeightVertexCover's branch & bound solves it per node as its
/// lower bound.
FractionalVcResult FractionalVertexCover(const SimpleGraph& g,
                                         const std::vector<double>& weights);

}  // namespace dbim

#endif  // DBIM_GRAPH_FRACTIONAL_VC_H_
