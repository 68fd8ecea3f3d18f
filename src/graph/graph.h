#ifndef DBIM_GRAPH_GRAPH_H_
#define DBIM_GRAPH_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbim {

struct GraphPart;

/// A plain undirected graph on vertices 0..n-1 with an edge list. Parallel
/// edges and self-loops are not stored (AddEdge deduplicates lazily via
/// Normalize). This is the currency of the combinatorial solvers; a
/// database's ConflictGraph keeps its binary witnesses as one.
class SimpleGraph {
 public:
  explicit SimpleGraph(size_t n) : n_(n) {}

  size_t num_vertices() const { return n_; }
  size_t num_edges() const { return edges_.size(); }
  const std::vector<std::pair<uint32_t, uint32_t>>& edges() const {
    return edges_;
  }

  /// Adds an undirected edge (a != b required).
  void AddEdge(uint32_t a, uint32_t b);

  /// Sorts the edge list (radix, O(n + E)) and removes duplicates.
  void Normalize();

  /// Sorted, deduplicated adjacency lists.
  std::vector<std::vector<uint32_t>> AdjacencyLists() const;

  /// Connected components: returns (component index per vertex, number of
  /// components).
  std::pair<std::vector<uint32_t>, size_t> Components() const;

  /// The subgraph induced by `vertices` (strictly ascending), relabelled
  /// 0..k-1 in that order.
  SimpleGraph InducedSubgraph(const std::vector<uint32_t>& vertices) const;

  /// Splits the graph along `label` (a class in [0, num_parts) per vertex,
  /// e.g. from Components()) in one pass over the vertices and one over the
  /// edges. Part c equals InducedSubgraph() of class c's members.
  std::vector<GraphPart> Split(const std::vector<uint32_t>& label,
                               size_t num_parts) const;

 private:
  size_t n_;
  std::vector<std::pair<uint32_t, uint32_t>> edges_;
};

/// One class of a vertex partition (see SimpleGraph::Split): its vertices,
/// ascending, and the subgraph they induce, relabelled 0..k-1 in that order.
struct GraphPart {
  std::vector<uint32_t> members;
  SimpleGraph graph{0};
};

}  // namespace dbim

#endif  // DBIM_GRAPH_GRAPH_H_
