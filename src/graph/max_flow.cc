#include "graph/max_flow.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dbim {

MaxFlow::MaxFlow(size_t num_nodes) : num_nodes_(num_nodes) {}

void MaxFlow::AddEdge(uint32_t from, uint32_t to, double capacity) {
  DBIM_CHECK(level_.empty());
  DBIM_CHECK(from < num_nodes_ && to < num_nodes_);
  DBIM_CHECK(capacity >= 0.0);
  edges_.push_back(Edge{from, to, capacity});
}

bool MaxFlow::Bfs(uint32_t s, uint32_t t) {
  level_.assign(num_nodes_, -1);
  std::vector<uint32_t> queue = {s};
  level_[s] = 0;
  for (size_t head = 0; head < queue.size(); ++head) {
    const uint32_t v = queue[head];
    for (uint32_t i = first_[v]; i < first_[v + 1]; ++i) {
      const Arc& a = arcs_[i];
      if (a.cap > kEps && level_[a.to] < 0) {
        level_[a.to] = level_[v] + 1;
        queue.push_back(a.to);
      }
    }
  }
  return level_[t] >= 0;
}

double MaxFlow::Dfs(uint32_t v, uint32_t t, double pushed) {
  if (v == t) return pushed;
  for (uint32_t& i = iter_[v]; i < first_[v + 1]; ++i) {
    Arc& a = arcs_[i];
    if (a.cap <= kEps || level_[a.to] != level_[v] + 1) continue;
    const double got = Dfs(a.to, t, std::min(pushed, a.cap));
    if (got > kEps) {
      a.cap -= got;
      arcs_[a.rev].cap += got;
      return got;
    }
  }
  return 0.0;
}

double MaxFlow::Solve(uint32_t s, uint32_t t) {
  DBIM_CHECK(level_.empty());
  DBIM_CHECK(s < num_nodes_ && t < num_nodes_ && s != t);
  // CSR layout: count each node's arcs, then place every edge's forward
  // and reverse arc in edge order.
  first_.assign(num_nodes_ + 1, 0);
  for (const Edge& e : edges_) {
    ++first_[e.from + 1];
    ++first_[e.to + 1];
  }
  for (size_t v = 0; v < num_nodes_; ++v) first_[v + 1] += first_[v];
  std::vector<uint32_t> next(first_.begin(), first_.end() - 1);
  arcs_.resize(2 * edges_.size());
  for (const Edge& e : edges_) {
    const uint32_t fwd = next[e.from]++;
    const uint32_t rev = next[e.to]++;
    arcs_[fwd] = Arc{e.to, rev, e.cap};
    arcs_[rev] = Arc{e.from, fwd, 0.0};
  }
  double flow = 0.0;
  while (Bfs(s, t)) {
    iter_.assign(first_.begin(), first_.end() - 1);
    while (true) {
      const double pushed =
          Dfs(s, t, std::numeric_limits<double>::infinity());
      if (pushed <= kEps) break;
      flow += pushed;
    }
  }
  return flow;
}

bool MaxFlow::SourceSide(uint32_t v) const {
  DBIM_CHECK_MSG(!level_.empty(), "SourceSide before Solve");
  DBIM_CHECK_MSG(v < num_nodes_, "node %u out of range", v);
  // level_ holds the last (failed) BFS labelling: reachable from s in the
  // residual network iff level >= 0.
  return level_[v] >= 0;
}

}  // namespace dbim
