#include "graph/cover_flow.h"

#include <algorithm>

#include "common/check.h"

namespace dbim {

CoverCut MinCoverCut(size_t n,
                     const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                     std::vector<double> source_cap,
                     std::vector<double> sink_cap) {
  constexpr double kEps = 1e-9;
  DBIM_CHECK(n <= UINT32_MAX / 2);  // right node v is numbered n + v
  DBIM_CHECK(source_cap.size() == n && sink_cap.size() == n);
  // CSR: count each index's entries, then place both entries of every edge
  // in edge order, each naming the other as its twin.
  std::vector<uint32_t> first(n + 1, 0);
  for (const auto& [a, b] : edges) {
    DBIM_CHECK(a < n && b < n && a != b);
    ++first[a + 1];
    ++first[b + 1];
  }
  for (size_t v = 0; v < n; ++v) first[v + 1] += first[v];
  std::vector<uint32_t> adj(2 * edges.size());
  std::vector<uint32_t> twin(2 * edges.size());
  std::vector<uint32_t> iter(first.begin(), first.end() - 1);  // cursors
  iter.resize(2 * n);
  for (const auto& [a, b] : edges) {
    const uint32_t p = iter[a]++;
    const uint32_t q = iter[b]++;
    adj[p] = b;
    adj[q] = a;
    twin[p] = q;
    twin[q] = p;
  }

  // Residuals: source_cap and sink_cap keep what the source and sink arcs
  // have left, flow[p] the flow on arc v+ -> adj[p]- (p in v's range).
  // Greedy seed: each left node in index order fills its arcs' sinks.
  CoverCut cut;
  std::vector<double> flow(2 * edges.size(), 0.0);
  for (uint32_t u = 0; u < n; ++u) {
    double res = source_cap[u];
    DBIM_CHECK(res >= 0.0 && sink_cap[u] >= 0.0);
    for (uint32_t p = first[u]; p < first[u + 1] && res > kEps; ++p) {
      double& sink = sink_cap[adj[p]];
      const double pushed = std::min(res, sink);
      if (pushed <= kEps) continue;
      flow[p] = pushed;
      res -= pushed;
      sink -= pushed;
      cut.flow += pushed;
    }
    source_cap[u] = res;
  }

  // Dinic on nodes numbered u for left u+ and n + v for right v-. A left
  // node's arcs run forwards to right nodes; a right node's run back to the
  // left nodes that send it flow. level -1 marks a node the BFS did not
  // label or a phase found dead; iter holds the current-arc pointers. Node
  // 2n stands for "no arc": its level never admits it to a BFS or a path.
  const auto none = static_cast<uint32_t>(2 * n);
  std::vector<int32_t> level(2 * n + 1, -1);
  level[none] = INT32_MAX;
  std::vector<uint32_t> queue(2 * n);
  std::vector<uint32_t> path;
  size_t num_seeds = 0;  // queue[0, num_seeds): the level-1 left nodes
  size_t tail = 0;
  // Where node x's arc at entry p leads in the residual network.
  const auto head_of = [&](uint32_t x, uint32_t p) -> uint32_t {
    if (x < n) return static_cast<uint32_t>(n + adj[p]);
    return flow[twin[p]] > kEps ? adj[p] : none;
  };
  // Labels nodes by residual distance from the source; returns the sink's,
  // or -1 when it is out of reach (and every reachable node is labelled).
  const auto bfs = [&]() -> int32_t {
    tail = 0;
    for (uint32_t u = 0; u < n; ++u) {
      if (source_cap[u] <= kEps) continue;
      level[u] = 1;
      iter[u] = first[u];
      queue[tail++] = u;
    }
    num_seeds = tail;
    for (size_t head = 0; head < tail; ++head) {
      const uint32_t x = queue[head];
      const uint32_t v = x < n ? x : static_cast<uint32_t>(x - n);
      // The queue is in level order, so once the first right node with a
      // residual sink arc comes up, every level below the sink's is done.
      if (x >= n && sink_cap[v] > kEps) return level[x] + 1;
      for (uint32_t p = first[v]; p < first[v + 1]; ++p) {
        const uint32_t y = head_of(x, p);
        if (level[y] >= 0) continue;
        level[y] = level[x] + 1;
        iter[y] = first[y < n ? y : y - n];
        queue[tail++] = y;
      }
    }
    return -1;
  };
  // One phase: from each level-1 left node in turn, walks the level graph
  // along current arcs and pushes each path's bottleneck until none is
  // left. Right nodes one level below the sink only lead to the sink.
  const auto augment = [&](int32_t sink_level) {
    for (size_t i = 0; i < num_seeds; ++i) {
      const uint32_t root = queue[i];
      path.assign(1, root);
      while (!path.empty()) {
        const uint32_t x = path.back();
        const uint32_t v = x < n ? x : static_cast<uint32_t>(x - n);
        if (x < n || sink_cap[v] <= kEps) {
          uint32_t& p = iter[x];
          const uint32_t end = level[x] + 1 < sink_level ? first[v + 1] : p;
          while (p < end && level[head_of(x, p)] != level[x] + 1) ++p;
          if (p < end) {
            path.push_back(head_of(x, p));
          } else {
            level[x] = -1;
            path.pop_back();
          }
          continue;
        }
        // The bottleneck: the source arc, the reverse arcs and the sink arc
        // (forward arcs are unbounded). Then walk again from the root.
        double d = std::min(source_cap[root], sink_cap[v]);
        for (size_t k = 1; k + 1 < path.size(); k += 2) {
          d = std::min(d, flow[twin[iter[path[k]]]]);
        }
        source_cap[root] -= d;
        sink_cap[v] -= d;
        for (size_t k = 0; k < path.size(); k += 2) {
          flow[iter[path[k]]] += d;
          if (k + 2 < path.size()) flow[twin[iter[path[k + 1]]]] -= d;
        }
        cut.flow += d;
        path.assign(source_cap[root] > kEps ? 1 : 0, root);
      }
    }
  };
  for (int32_t sink_level = bfs(); sink_level >= 0; sink_level = bfs()) {
    augment(sink_level);
    for (size_t i = 0; i < tail; ++i) level[queue[i]] = -1;
  }

  // The last BFS reached no sink, so its labels are the source side.
  for (size_t x = 0; x < 2 * n; ++x) cut.source_side.push_back(level[x] >= 0);
  return cut;
}

}  // namespace dbim
