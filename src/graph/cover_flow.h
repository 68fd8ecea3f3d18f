#ifndef DBIM_GRAPH_COVER_FLOW_H_
#define DBIM_GRAPH_COVER_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbim {

/// Maximum flow and minimal minimum cut of a bipartite cover network.
struct CoverCut {
  double flow = 0.0;              // summed in push order
  std::vector<bool> source_side;  // v+ at v and v- at n + v
};

/// The one flow shape the solvers need: source -> v+ (source_cap[v]) ->
/// u- (unbounded) -> sink (sink_cap[u]) for each undirected edge {a, b}
/// over [0, n), both ways. A graph's double cover puts its weights on both
/// sides; separate sides are numbered apart, unused capacities 0.
///
/// A greedy pass in index order pushes along each arc what both its ends
/// still take (a generic Dinic's first phase), then Dinic phases augment
/// in that Dinic's order, so the flow's sum matches it bit for bit. The cut
/// is the last BFS's reach from the source: the minimal minimum cut, which
/// every maximum flow shares, however it was found.
CoverCut MinCoverCut(size_t n,
                     const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                     std::vector<double> source_cap,
                     std::vector<double> sink_cap);

}  // namespace dbim

#endif  // DBIM_GRAPH_COVER_FLOW_H_
