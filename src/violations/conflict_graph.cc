#include "violations/conflict_graph.h"

#include <algorithm>

#include "common/check.h"
#include "common/radix_sort.h"

namespace dbim {

ConflictGraph ConflictGraph::Build(const Database& db,
                                   const ViolationSet& violations) {
  return Build(violations, [&db](FactId id) { return db.deletion_cost(id); });
}

ConflictGraph ConflictGraph::Build(
    const ViolationSet& violations,
    const std::function<double(FactId)>& weight) {
  ConflictGraph g;
  // One key per occurrence of a fact in a subset: (fact id << 32 |
  // occurrence index). A stable radix sort on the fact id groups each
  // fact's occurrences in ascending fact order, which numbers the vertices
  // and tells every occurrence its vertex.
  const std::vector<FactId>& facts = violations.facts();
  std::vector<uint64_t> keys(facts.size());
  for (size_t i = 0; i < facts.size(); ++i) {
    keys[i] = static_cast<uint64_t>(facts[i]) << 32 | i;
  }
  std::vector<uint64_t> scratch;
  StableRadixSort(keys, scratch,
                  [](uint64_t key) { return static_cast<FactId>(key >> 32); });
  std::vector<uint32_t> vertex_at(keys.size());
  for (const uint64_t key : keys) {
    const FactId id = static_cast<FactId>(key >> 32);
    if (g.fact_of_.empty() || g.fact_of_.back() != id) {
      g.fact_of_.push_back(id);
    }
    vertex_at[static_cast<uint32_t>(key)] =
        static_cast<uint32_t>(g.fact_of_.size() - 1);
  }

  const size_t n = g.fact_of_.size();
  g.graph_ = SimpleGraph(n);
  g.self_inconsistent_.assign(n, false);
  g.weights_.resize(n);
  for (uint32_t v = 0; v < n; ++v) g.weights_[v] = weight(g.fact_of_[v]);
  const uint32_t* at = vertex_at.data();
  for (const FactSpan subset : violations) {
    if (subset.size == 1) {
      if (!g.self_inconsistent_[at[0]]) {
        g.self_inconsistent_[at[0]] = true;
        ++g.num_self_inconsistent_;
      }
    } else if (subset.size == 2) {
      g.graph_.AddEdge(at[0], at[1]);
    } else {
      g.hyperedges_.emplace_back(at, at + subset.size);
    }
    at += subset.size;
  }
  g.graph_.Normalize();
  return g;
}

uint32_t ConflictGraph::vertex_of(FactId id) const {
  const auto it = std::lower_bound(fact_of_.begin(), fact_of_.end(), id);
  DBIM_CHECK_MSG(it != fact_of_.end() && *it == id,
                 "fact %u is not problematic", id);
  return static_cast<uint32_t>(it - fact_of_.begin());
}

bool ConflictGraph::IsProblematic(FactId id) const {
  return std::binary_search(fact_of_.begin(), fact_of_.end(), id);
}

CoveringProblem ConflictGraph::ToCovering() const {
  CoveringProblem problem;
  problem.costs = weights_;
  for (uint32_t v = 0; v < num_vertices(); ++v) {
    if (self_inconsistent_[v]) problem.sets.push_back({v});
  }
  for (const auto& [a, b] : graph_.edges()) problem.sets.push_back({a, b});
  for (const auto& e : hyperedges_) problem.sets.push_back(e);
  return problem;
}

}  // namespace dbim
