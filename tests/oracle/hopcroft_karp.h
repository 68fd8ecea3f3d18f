#ifndef DBIM_TESTS_ORACLE_HOPCROFT_KARP_H_
#define DBIM_TESTS_ORACLE_HOPCROFT_KARP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dbim::testing {

/// Hopcroft–Karp maximum bipartite matching. Left vertices 0..n_left-1,
/// right vertices 0..n_right-1, edges as (left, right) pairs.
///
/// The unit-cost I_lin_R oracle: the fractional vertex-cover optimum of a
/// graph equals half the maximum matching of its bipartite double cover
/// (König duality on the double cover), independently of the max-flow
/// LinRepairMeasure solves it with.
class HopcroftKarp {
 public:
  HopcroftKarp(size_t n_left, size_t n_right,
               const std::vector<std::pair<uint32_t, uint32_t>>& edges);

  /// Computes and returns the maximum matching size. O(E sqrt(V)).
  size_t MaxMatching();

  /// After MaxMatching(): partner of left vertex v, or -1.
  const std::vector<int32_t>& left_match() const { return match_left_; }
  const std::vector<int32_t>& right_match() const { return match_right_; }

  /// After MaxMatching(): a minimum vertex cover (König's theorem), as
  /// (in_cover_left, in_cover_right) flags. |cover| == matching size.
  std::pair<std::vector<bool>, std::vector<bool>> MinVertexCover() const;

 private:
  bool Bfs();
  bool Dfs(uint32_t u);

  size_t n_left_;
  size_t n_right_;
  std::vector<std::vector<uint32_t>> adj_;  // left -> rights
  std::vector<int32_t> match_left_;
  std::vector<int32_t> match_right_;
  std::vector<uint32_t> dist_;
};

}  // namespace dbim::testing

#endif  // DBIM_TESTS_ORACLE_HOPCROFT_KARP_H_
