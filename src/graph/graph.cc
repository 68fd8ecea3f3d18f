#include "graph/graph.h"

#include <algorithm>
#include <functional>

#include "common/check.h"

namespace dbim {

void SimpleGraph::AddEdge(uint32_t a, uint32_t b) {
  DBIM_CHECK(a != b);
  DBIM_CHECK(a < n_ && b < n_);
  if (a > b) std::swap(a, b);
  edges_.emplace_back(a, b);
}

void SimpleGraph::Normalize() {
  // Every edge has a < b < n_, so two stable counting sorts, by b and then
  // by a, sort the list in O(n + E); duplicates end up adjacent.
  std::vector<std::pair<uint32_t, uint32_t>> sorted(edges_.size());
  for (const bool by_first : {false, true}) {
    std::vector<uint32_t> start(n_ + 1, 0);
    for (const auto& e : edges_) ++start[(by_first ? e.first : e.second) + 1];
    for (size_t v = 0; v < n_; ++v) start[v + 1] += start[v];
    for (const auto& e : edges_) {
      sorted[start[by_first ? e.first : e.second]++] = e;
    }
    edges_.swap(sorted);
  }
  edges_.erase(std::unique(edges_.begin(), edges_.end()), edges_.end());
}

std::vector<std::vector<uint32_t>> SimpleGraph::AdjacencyLists() const {
  std::vector<std::vector<uint32_t>> adj(n_);
  for (const auto& [a, b] : edges_) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  return adj;
}

std::pair<std::vector<uint32_t>, size_t> SimpleGraph::Components() const {
  std::vector<uint32_t> comp(n_, UINT32_MAX);
  const auto adj = AdjacencyLists();
  size_t count = 0;
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < n_; ++s) {
    if (comp[s] != UINT32_MAX) continue;
    comp[s] = static_cast<uint32_t>(count);
    stack.push_back(s);
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      for (const uint32_t w : adj[v]) {
        if (comp[w] == UINT32_MAX) {
          comp[w] = static_cast<uint32_t>(count);
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  return {std::move(comp), count};
}

SimpleGraph SimpleGraph::InducedSubgraph(
    const std::vector<uint32_t>& vertices) const {
  DBIM_CHECK(std::adjacent_find(vertices.begin(), vertices.end(),
                                std::greater_equal<>()) == vertices.end());
  DBIM_CHECK(vertices.empty() || vertices.back() < n_);
  std::vector<uint32_t> local(n_, UINT32_MAX);
  for (uint32_t i = 0; i < vertices.size(); ++i) local[vertices[i]] = i;
  SimpleGraph out(vertices.size());
  // Relabelling is monotone, so each kept edge keeps a < b.
  for (const auto& [a, b] : edges_) {
    if (local[a] != UINT32_MAX && local[b] != UINT32_MAX) {
      out.edges_.emplace_back(local[a], local[b]);
    }
  }
  out.Normalize();
  return out;
}

std::vector<GraphPart> SimpleGraph::Split(
    const std::vector<uint32_t>& label, size_t num_parts) const {
  DBIM_CHECK(label.size() == n_);
  std::vector<GraphPart> parts(num_parts);
  std::vector<uint32_t> local(n_);
  for (uint32_t v = 0; v < n_; ++v) {
    DBIM_CHECK(label[v] < num_parts);
    GraphPart& part = parts[label[v]];
    local[v] = static_cast<uint32_t>(part.members.size());
    part.members.push_back(v);
  }
  for (GraphPart& part : parts) part.graph.n_ = part.members.size();
  // Relabelling is monotone within a class, so each edge keeps a < b.
  for (const auto& [a, b] : edges_) {
    if (label[a] == label[b]) {
      parts[label[a]].graph.edges_.emplace_back(local[a], local[b]);
    }
  }
  for (GraphPart& part : parts) part.graph.Normalize();
  return parts;
}

}  // namespace dbim
