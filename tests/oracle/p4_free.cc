#include "oracle/p4_free.h"

#include <vector>

namespace dbim::testing {

namespace {

SimpleGraph Complement(const SimpleGraph& g) {
  const size_t n = g.num_vertices();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [a, b] : g.edges()) {
    adj[a][b] = true;
    adj[b][a] = true;
  }
  SimpleGraph out(n);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      if (!adj[a][b]) out.AddEdge(a, b);
    }
  }
  return out;
}

bool IsCograph(const SimpleGraph& g) {
  const size_t n = g.num_vertices();
  if (n <= 1) return true;
  const auto [comp, num_comps] = g.Components();
  if (num_comps > 1) {
    for (const GraphPart& part : g.Split(comp, num_comps)) {
      if (!IsCograph(part.graph)) return false;
    }
    return true;
  }
  const SimpleGraph co = Complement(g);
  const auto [co_comp, co_num] = co.Components();
  if (co_num == 1) return false;  // connected and co-connected => has a P4
  for (const GraphPart& part : g.Split(co_comp, co_num)) {
    if (!IsCograph(part.graph)) return false;
  }
  return true;
}

}  // namespace

bool IsP4Free(const SimpleGraph& g) { return IsCograph(g); }

std::vector<uint32_t> FindInducedP4(const SimpleGraph& g) {
  const size_t n = g.num_vertices();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [x, y] : g.edges()) {
    adj[x][y] = true;
    adj[y][x] = true;
  }
  // a - b - c - d with non-edges a-c, a-d, b-d.
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = 0; b < n; ++b) {
      if (b == a || !adj[a][b]) continue;
      for (uint32_t c = 0; c < n; ++c) {
        if (c == a || c == b || !adj[b][c] || adj[a][c]) continue;
        for (uint32_t d = 0; d < n; ++d) {
          if (d == a || d == b || d == c) continue;
          if (adj[c][d] && !adj[b][d] && !adj[a][d]) {
            return {a, b, c, d};
          }
        }
      }
    }
  }
  return {};
}

}  // namespace dbim::testing
