#ifndef DBIM_TESTS_ORACLE_MAX_FLOW_H_
#define DBIM_TESTS_ORACLE_MAX_FLOW_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dbim::testing {

/// Dinic's maximum-flow algorithm with real-valued capacities on any
/// directed network, from zero flow. The reference the library's
/// MinCoverCut (graph/cover_flow.h) is fuzzed against; MaxFlowSweep checks
/// it against the brute-force minimum cut. A small epsilon guards residual
/// comparisons, as in the library.
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
  // Finds one augmenting path in the level graph, pushes its bottleneck
  // along it and returns that; 0 when the phase is blocked.
  double Augment(uint32_t s, uint32_t t);

  static constexpr double kEps = 1e-9;

  size_t num_nodes_;
  std::vector<Edge> edges_;        // recorded by AddEdge, laid out by Solve
  std::vector<uint32_t> first_;    // node v's arcs: [first_[v], first_[v+1])
  std::vector<Arc> arcs_;
  std::vector<int32_t> level_;     // empty until Solve() runs
  std::vector<uint32_t> iter_;
};

}  // namespace dbim::testing

#endif  // DBIM_TESTS_ORACLE_MAX_FLOW_H_
