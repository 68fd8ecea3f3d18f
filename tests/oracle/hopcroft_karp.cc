#include "oracle/hopcroft_karp.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/check.h"

namespace dbim::testing {

namespace {
constexpr uint32_t kInf = std::numeric_limits<uint32_t>::max();
}  // namespace

HopcroftKarp::HopcroftKarp(
    size_t n_left, size_t n_right,
    const std::vector<std::pair<uint32_t, uint32_t>>& edges)
    : n_left_(n_left), n_right_(n_right), adj_(n_left) {
  for (const auto& [l, r] : edges) {
    DBIM_CHECK(l < n_left_ && r < n_right_);
    adj_[l].push_back(r);
  }
  match_left_.assign(n_left_, -1);
  match_right_.assign(n_right_, -1);
  dist_.assign(n_left_, kInf);
}

bool HopcroftKarp::Bfs() {
  std::queue<uint32_t> queue;
  for (uint32_t u = 0; u < n_left_; ++u) {
    if (match_left_[u] < 0) {
      dist_[u] = 0;
      queue.push(u);
    } else {
      dist_[u] = kInf;
    }
  }
  bool found_free = false;
  while (!queue.empty()) {
    const uint32_t u = queue.front();
    queue.pop();
    for (const uint32_t v : adj_[u]) {
      const int32_t w = match_right_[v];
      if (w < 0) {
        found_free = true;
      } else if (dist_[static_cast<uint32_t>(w)] == kInf) {
        dist_[static_cast<uint32_t>(w)] = dist_[u] + 1;
        queue.push(static_cast<uint32_t>(w));
      }
    }
  }
  return found_free;
}

bool HopcroftKarp::Dfs(uint32_t u) {
  for (const uint32_t v : adj_[u]) {
    const int32_t w = match_right_[v];
    if (w < 0 || (dist_[static_cast<uint32_t>(w)] == dist_[u] + 1 &&
                  Dfs(static_cast<uint32_t>(w)))) {
      match_left_[u] = static_cast<int32_t>(v);
      match_right_[v] = static_cast<int32_t>(u);
      return true;
    }
  }
  dist_[u] = kInf;
  return false;
}

size_t HopcroftKarp::MaxMatching() {
  while (Bfs()) {
    for (uint32_t u = 0; u < n_left_; ++u) {
      if (match_left_[u] < 0) Dfs(u);
    }
  }
  return n_left_ - static_cast<size_t>(std::count(
                       match_left_.begin(), match_left_.end(), -1));
}

std::pair<std::vector<bool>, std::vector<bool>> HopcroftKarp::MinVertexCover()
    const {
  // König: Z = free left vertices plus everything reachable by alternating
  // paths; cover = (L \ Z) union (R intersect Z).
  std::vector<bool> visited_left(n_left_, false);
  std::vector<bool> visited_right(n_right_, false);
  std::queue<uint32_t> queue;
  for (uint32_t u = 0; u < n_left_; ++u) {
    if (match_left_[u] < 0) {
      visited_left[u] = true;
      queue.push(u);
    }
  }
  while (!queue.empty()) {
    const uint32_t u = queue.front();
    queue.pop();
    for (const uint32_t v : adj_[u]) {
      if (visited_right[v]) continue;
      if (match_left_[u] == static_cast<int32_t>(v)) continue;  // non-matching
      visited_right[v] = true;
      const int32_t w = match_right_[v];
      if (w >= 0 && !visited_left[static_cast<uint32_t>(w)]) {
        visited_left[static_cast<uint32_t>(w)] = true;
        queue.push(static_cast<uint32_t>(w));
      }
    }
  }
  std::vector<bool> cover_left(n_left_);
  std::vector<bool> cover_right(n_right_);
  for (uint32_t u = 0; u < n_left_; ++u) cover_left[u] = !visited_left[u];
  for (uint32_t v = 0; v < n_right_; ++v) cover_right[v] = visited_right[v];
  return {std::move(cover_left), std::move(cover_right)};
}

}  // namespace dbim::testing
