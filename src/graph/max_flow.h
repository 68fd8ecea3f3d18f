#ifndef DBIM_GRAPH_MAX_FLOW_H_
#define DBIM_GRAPH_MAX_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbim {

/// Dinic's maximum-flow algorithm with real-valued capacities. Used for the
/// weighted fractional vertex-cover LP (min s-t cut on the bipartite double
/// cover). Capacities are doubles because fact deletion costs are; a small
/// epsilon guards residual comparisons.
///
/// AddEdge records edges; Solve lays them out in CSR form (one contiguous
/// arc range per node, arcs in edge insertion order), so the augmenting
/// paths, the flow's rounding and the cut depend only on AddEdge order.
class MaxFlow {
 public:
  explicit MaxFlow(size_t num_nodes);

  /// Adds a directed edge with the given capacity. Only before Solve().
  void AddEdge(uint32_t from, uint32_t to, double capacity);

  /// Runs Dinic from s to t and returns the max-flow value. Runs once.
  double Solve(uint32_t s, uint32_t t);

  /// After Solve(): whether `v` is on the source side of the min cut.
  bool SourceSide(uint32_t v) const;

 private:
  struct Edge {
    uint32_t from;
    uint32_t to;
    double cap;
  };
  struct Arc {
    uint32_t to;
    uint32_t rev;  // index of the paired arc in arcs_
    double cap;
  };

  bool Bfs(uint32_t s, uint32_t t);
  double Dfs(uint32_t v, uint32_t t, double pushed);

  static constexpr double kEps = 1e-9;

  size_t num_nodes_;
  std::vector<Edge> edges_;        // recorded by AddEdge, laid out by Solve
  std::vector<uint32_t> first_;    // node v's arcs: [first_[v], first_[v+1])
  std::vector<Arc> arcs_;
  std::vector<int32_t> level_;     // empty until Solve() runs
  std::vector<uint32_t> iter_;
};

}  // namespace dbim

#endif  // DBIM_GRAPH_MAX_FLOW_H_
