#include "oracle/max_flow.h"

#include <algorithm>
#include <limits>

#include "common/check.h"

namespace dbim::testing {

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

double MaxFlow::Augment(uint32_t s, uint32_t t) {
  // Depth-first along the level graph with current-arc pointers, kept on
  // an explicit stack (augmenting paths can be as long as the network):
  // a node with no admissible arc left is popped and its parent's pointer
  // advanced, so each arc is tried at most once per phase.
  std::vector<uint32_t> path = {s};
  while (path.back() != t) {
    const uint32_t v = path.back();
    uint32_t& i = iter_[v];
    while (i < first_[v + 1] &&
           (arcs_[i].cap <= kEps || level_[arcs_[i].to] != level_[v] + 1)) {
      ++i;
    }
    if (i < first_[v + 1]) {
      path.push_back(arcs_[i].to);
      continue;
    }
    path.pop_back();
    if (path.empty()) return 0.0;
    ++iter_[path.back()];
  }
  double pushed = std::numeric_limits<double>::infinity();
  for (size_t k = 0; k + 1 < path.size(); ++k) {
    pushed = std::min(pushed, arcs_[iter_[path[k]]].cap);
  }
  for (size_t k = 0; k + 1 < path.size(); ++k) {
    Arc& a = arcs_[iter_[path[k]]];
    a.cap -= pushed;
    arcs_[a.rev].cap += pushed;
  }
  return pushed;
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
      const double pushed = Augment(s, t);
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

}  // namespace dbim::testing
