#ifndef DBIM_VIOLATIONS_CONFLICT_GRAPH_H_
#define DBIM_VIOLATIONS_CONFLICT_GRAPH_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "lp/covering.h"
#include "relational/database.h"
#include "violations/violation.h"

namespace dbim {

/// The conflict structure of a database w.r.t. a constraint set, built from
/// MI_Sigma(D):
///
///  * vertices: the problematic facts (facts occurring in some minimal
///    inconsistent subset) — non-problematic facts are irrelevant to every
///    measure that consumes this structure;
///  * graph: the size-2 minimal subsets (the paper's conflict graph for
///    FDs) as one SimpleGraph over the vertices, edges sorted. A
///    self-inconsistent vertex is an isolated vertex of it: minimality
///    keeps every larger witness off a fact that is inconsistent alone;
///  * hyperedges: minimal subsets of size >= 3 (general DCs), each sorted;
///  * self-inconsistent flags: singleton minimal subsets; such facts belong
///    to no consistent subset, so covers must include them and independent
///    sets must exclude them;
///  * weights: per-fact deletion costs, so that minimum weighted vertex
///    cover equals I_R and the fractional relaxation equals I_lin_R.
///
/// Vertices are numbered by ascending fact id (one sort, no hash table), so
/// fact -> vertex is a binary search over `fact_of_`. Hyperedges keep the
/// order of `minimal_subsets()`.
class ConflictGraph {
 public:
  static ConflictGraph Build(const Database& db,
                             const ViolationSet& violations);

  size_t num_vertices() const { return fact_of_.size(); }
  FactId fact_of(uint32_t v) const { return fact_of_[v]; }

  /// Vertex of a fact; the fact must be problematic.
  uint32_t vertex_of(FactId id) const;
  bool IsProblematic(FactId id) const;

  const SimpleGraph& graph() const { return graph_; }
  const std::vector<std::vector<uint32_t>>& hyperedges() const {
    return hyperedges_;
  }
  const std::vector<bool>& self_inconsistent() const {
    return self_inconsistent_;
  }
  const std::vector<double>& weights() const { return weights_; }

  bool HasHyperedges() const { return !hyperedges_.empty(); }
  size_t num_self_inconsistent() const { return num_self_inconsistent_; }

  /// The paper's Figure 2 covering problem over the vertices: one set per
  /// minimal inconsistent subset — the singletons in vertex order, then
  /// the edges, then the hyperedges — priced by `weights()`.
  CoveringProblem ToCovering() const;

 private:
  std::vector<FactId> fact_of_;  // ascending
  SimpleGraph graph_{0};
  std::vector<std::vector<uint32_t>> hyperedges_;
  std::vector<bool> self_inconsistent_;
  std::vector<double> weights_;
  size_t num_self_inconsistent_ = 0;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_CONFLICT_GRAPH_H_
