#include "graph/vertex_cover.h"

#include <algorithm>
#include <tuple>

#include "common/check.h"
#include "graph/fractional_vc.h"

namespace dbim {

namespace {

constexpr double kEps = 1e-9;

// Branch & bound over one (small, kernelized) component.
class BnbSolver {
 public:
  BnbSolver(const SimpleGraph& g, const std::vector<double>& weights,
            const Deadline& deadline, size_t* bb_nodes)
      : g_(g),
        adj_(g.AdjacencyLists()),
        w_(weights),
        deadline_(deadline),
        bb_nodes_(bb_nodes) {}

  // Returns (value, cover, proven_optimal).
  std::tuple<double, std::vector<bool>, bool> Solve() {
    const size_t n = g_.num_vertices();
    // Greedy incumbent: repeatedly take the vertex with the best
    // covered-edges-per-weight ratio.
    best_cover_ = GreedyCover();
    best_value_ = CoverWeight(best_cover_);

    std::vector<char> alive(n, 1);
    std::vector<bool> chosen(n, false);
    Recurse(alive, chosen, 0.0);
    return {best_value_, best_cover_, proven_optimal_};
  }

 private:
  std::vector<bool> GreedyCover() const {
    const size_t n = g_.num_vertices();
    std::vector<bool> cover(n, false);
    std::vector<size_t> degree(n, 0);
    std::vector<char> edge_alive(g_.num_edges(), 1);
    for (const auto& [a, b] : g_.edges()) {
      ++degree[a];
      ++degree[b];
    }
    size_t remaining = g_.num_edges();
    while (remaining > 0) {
      uint32_t best = UINT32_MAX;
      double best_ratio = -1.0;
      for (uint32_t v = 0; v < n; ++v) {
        if (cover[v] || degree[v] == 0) continue;
        const double ratio = static_cast<double>(degree[v]) / w_[v];
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = v;
        }
      }
      DBIM_CHECK(best != UINT32_MAX);
      cover[best] = true;
      for (size_t e = 0; e < g_.num_edges(); ++e) {
        if (!edge_alive[e]) continue;
        const auto& [a, b] = g_.edges()[e];
        if (a == best || b == best) {
          edge_alive[e] = 0;
          --remaining;
          --degree[a];
          --degree[b];
        }
      }
    }
    return cover;
  }

  double CoverWeight(const std::vector<bool>& cover) const {
    double total = 0.0;
    for (uint32_t v = 0; v < cover.size(); ++v) {
      if (cover[v]) total += w_[v];
    }
    return total;
  }

  size_t LiveDegree(const std::vector<char>& alive, uint32_t v) const {
    size_t d = 0;
    for (const uint32_t u : adj_[v]) {
      if (alive[u]) ++d;
    }
    return d;
  }

  // Fractional VC of the live subgraph: the LP lower bound.
  double LowerBound(const std::vector<char>& alive) const {
    std::vector<uint32_t> live;
    for (uint32_t v = 0; v < alive.size(); ++v) {
      if (alive[v]) live.push_back(v);
    }
    if (live.empty()) return 0.0;
    const SimpleGraph sub = g_.InducedSubgraph(live);
    if (sub.num_edges() == 0) return 0.0;
    std::vector<double> sub_w(live.size());
    for (uint32_t i = 0; i < live.size(); ++i) sub_w[i] = w_[live[i]];
    return FractionalVertexCover(sub, sub_w).value;
  }

  void Recurse(std::vector<char>& alive, std::vector<bool>& chosen,
               double cost) {
    ++*bb_nodes_;
    if (deadline_.Expired()) {
      proven_optimal_ = false;
      return;
    }
    // Reductions: drop isolated vertices; for a degree-1 vertex v with
    // neighbor u of weight <= w_v, taking u dominates taking v.
    bool changed = true;
    std::vector<uint32_t> undo_alive;
    std::vector<uint32_t> undo_chosen;
    double added = 0.0;
    while (changed) {
      changed = false;
      for (uint32_t v = 0; v < alive.size(); ++v) {
        if (!alive[v]) continue;
        const size_t deg = LiveDegree(alive, v);
        if (deg == 0) {
          alive[v] = 0;
          undo_alive.push_back(v);
          changed = true;
        } else if (deg == 1) {
          uint32_t u = UINT32_MAX;
          for (const uint32_t cand : adj_[v]) {
            if (alive[cand]) u = cand;
          }
          if (w_[u] <= w_[v] + kEps) {
            chosen[u] = true;
            undo_chosen.push_back(u);
            added += w_[u];
            alive[u] = 0;
            undo_alive.push_back(u);
            alive[v] = 0;
            undo_alive.push_back(v);
            changed = true;
          }
        }
      }
    }
    cost += added;

    uint32_t branch_vertex = UINT32_MAX;
    size_t branch_degree = 0;
    for (uint32_t v = 0; v < alive.size(); ++v) {
      if (!alive[v]) continue;
      const size_t deg = LiveDegree(alive, v);
      if (deg > branch_degree) {
        branch_degree = deg;
        branch_vertex = v;
      }
    }

    if (branch_vertex == UINT32_MAX) {
      // No live edges: `chosen` is a cover.
      if (cost < best_value_ - kEps) {
        best_value_ = cost;
        best_cover_ = chosen;
      }
    } else if (cost + LowerBound(alive) < best_value_ - kEps) {
      const uint32_t v = branch_vertex;
      // Branch A: v in the cover.
      chosen[v] = true;
      alive[v] = 0;
      Recurse(alive, chosen, cost + w_[v]);
      chosen[v] = false;
      alive[v] = 1;
      // Branch B: v excluded, so every live neighbor joins the cover.
      std::vector<uint32_t> taken;
      double nbr_cost = 0.0;
      for (const uint32_t u : adj_[v]) {
        if (!alive[u]) continue;
        chosen[u] = true;
        alive[u] = 0;
        taken.push_back(u);
        nbr_cost += w_[u];
      }
      alive[v] = 0;
      Recurse(alive, chosen, cost + nbr_cost);
      alive[v] = 1;
      for (const uint32_t u : taken) {
        chosen[u] = false;
        alive[u] = 1;
      }
    }

    for (const uint32_t v : undo_alive) alive[v] = 1;
    for (const uint32_t v : undo_chosen) chosen[v] = false;
  }

  const SimpleGraph& g_;
  const std::vector<std::vector<uint32_t>> adj_;
  const std::vector<double>& w_;
  const Deadline& deadline_;
  size_t* bb_nodes_;
  double best_value_ = 0.0;
  std::vector<bool> best_cover_;
  bool proven_optimal_ = true;
};

}  // namespace

VertexCoverResult MinWeightVertexCover(const SimpleGraph& g,
                                       const std::vector<double>& weights,
                                       const std::vector<double>& x,
                                       const VertexCoverOptions& options) {
  const size_t n = g.num_vertices();
  DBIM_CHECK(weights.size() == n && x.size() == n);
  VertexCoverResult result;
  result.in_cover.assign(n, false);

  // Nemhauser–Trotter: from a half-integral LP optimum, the 1-vertices are
  // in some optimal cover and the 0-vertices in none; only the
  // half-vertices need branching.
  std::vector<uint32_t> kernel;
  for (uint32_t v = 0; v < n; ++v) {
    if (x[v] > 0.75) {
      result.in_cover[v] = true;
      result.value += weights[v];
    } else if (x[v] > 0.25) {
      kernel.push_back(v);
    }
  }
  if (kernel.empty()) return result;

  const Deadline deadline(options.deadline_seconds);
  const SimpleGraph kernel_graph = g.InducedSubgraph(kernel);
  const auto [comp, num_comps] = kernel_graph.Components();
  for (const GraphPart& part : kernel_graph.Split(comp, num_comps)) {
    if (part.graph.num_edges() == 0) continue;
    std::vector<double> part_w(part.members.size());
    for (uint32_t i = 0; i < part.members.size(); ++i) {
      part_w[i] = weights[kernel[part.members[i]]];
    }
    BnbSolver solver(part.graph, part_w, deadline, &result.bb_nodes);
    const auto [value, cover, optimal] = solver.Solve();
    result.value += value;
    if (!optimal) result.optimal = false;
    for (uint32_t i = 0; i < part.members.size(); ++i) {
      if (cover[i]) result.in_cover[kernel[part.members[i]]] = true;
    }
  }
  return result;
}

}  // namespace dbim
