#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/bron_kerbosch.h"
#include "graph/fractional_vc.h"
#include "graph/graph.h"
#include "graph/max_cut.h"
#include "graph/max_flow.h"
#include "graph/p4_free.h"
#include "graph/vertex_cover.h"
#include "lp/covering.h"
#include "oracle/hopcroft_karp.h"

namespace dbim {
namespace {

using testing::HopcroftKarp;

SimpleGraph RandomGraph(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  SimpleGraph g(n);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(p)) g.AddEdge(a, b);
    }
  }
  g.Normalize();
  return g;
}

// Brute-force references.
double BruteMinVertexCover(const SimpleGraph& g,
                           const std::vector<double>& w) {
  const size_t n = g.num_vertices();
  double best = 1e18;
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    bool covers = true;
    for (const auto& [a, b] : g.edges()) {
      if (!((mask >> a) & 1ull) && !((mask >> b) & 1ull)) {
        covers = false;
        break;
      }
    }
    if (!covers) continue;
    double cost = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1ull) cost += w[v];
    }
    best = std::min(best, cost);
  }
  return best;
}

double BruteCountMis(const SimpleGraph& g) {
  const size_t n = g.num_vertices();
  std::vector<std::vector<bool>> adj(n, std::vector<bool>(n, false));
  for (const auto& [a, b] : g.edges()) {
    adj[a][b] = adj[b][a] = true;
  }
  auto independent = [&](uint64_t s) {
    for (const auto& [a, b] : g.edges()) {
      if (((s >> a) & 1ull) && ((s >> b) & 1ull)) return false;
    }
    return true;
  };
  double count = 0;
  for (uint64_t s = 0; s < (1ull << n); ++s) {
    if (!independent(s)) continue;
    bool maximal = true;
    for (uint32_t v = 0; v < n && maximal; ++v) {
      if ((s >> v) & 1ull) continue;
      if (independent(s | (1ull << v))) maximal = false;
    }
    if (maximal) count += 1;
  }
  return count;
}

// ---- SimpleGraph ----

TEST(SimpleGraph, NormalizeDeduplicates) {
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 0);
  g.AddEdge(1, 2);
  g.Normalize();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(SimpleGraph, Components) {
  SimpleGraph g(5);
  g.AddEdge(0, 1);
  g.AddEdge(3, 4);
  const auto [comp, count] = g.Components();
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(SimpleGraph, InducedSubgraph) {
  SimpleGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  const SimpleGraph sub = g.InducedSubgraph({1, 2, 3});
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_EQ(sub.num_edges(), 2u);
}

// Split along the components (and along an arbitrary labelling): each
// part holds its class's vertices ascending and exactly the edges inside
// the class, relabelled by rank and sorted.
TEST(SimpleGraph, SplitYieldsInducedSubgraphs) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const SimpleGraph g = RandomGraph(12, 0.15, seed);
    Rng rng(seed);
    std::vector<uint32_t> arbitrary(g.num_vertices());
    for (auto& label : arbitrary) {
      label = static_cast<uint32_t>(rng.UniformIndex(3));
    }
    const auto [comp, num_comps] = g.Components();
    for (const auto& [label, num_parts] :
         {std::make_pair(comp, num_comps),
          std::make_pair(arbitrary, size_t{3})}) {
      const std::vector<GraphPart> parts = g.Split(label, num_parts);
      ASSERT_EQ(parts.size(), num_parts);
      for (uint32_t c = 0; c < num_parts; ++c) {
        std::vector<uint32_t> members;
        std::vector<uint32_t> rank(g.num_vertices());
        for (uint32_t v = 0; v < g.num_vertices(); ++v) {
          if (label[v] != c) continue;
          rank[v] = static_cast<uint32_t>(members.size());
          members.push_back(v);
        }
        std::vector<std::pair<uint32_t, uint32_t>> edges;
        for (const auto& [a, b] : g.edges()) {
          if (label[a] == c && label[b] == c) {
            edges.emplace_back(rank[a], rank[b]);
          }
        }
        std::sort(edges.begin(), edges.end());
        EXPECT_EQ(parts[c].members, members);
        EXPECT_EQ(parts[c].graph.num_vertices(), members.size());
        EXPECT_EQ(parts[c].graph.edges(), edges);
      }
    }
  }
  // A class label or an induced vertex outside the graph is refused.
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  EXPECT_DEATH(g.Split({0, 2, 0}, 2), "label\\[v\\] < num_parts");
  EXPECT_DEATH(g.InducedSubgraph({1, 3}), "vertices.back\\(\\) < n_");
}

// ---- Matching / Konig ----

TEST(HopcroftKarp, PerfectMatchingOnCycle) {
  // Bipartite 4-cycle: left {0,1}, right {0,1}, all cross edges.
  HopcroftKarp hk(2, 2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  EXPECT_EQ(hk.MaxMatching(), 2u);
}

TEST(HopcroftKarp, StarGraph) {
  HopcroftKarp hk(1, 5, {{0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}});
  EXPECT_EQ(hk.MaxMatching(), 1u);
  EXPECT_EQ(hk.MaxMatching(), 1u) << "a second call reports the same size";
}

TEST(HopcroftKarp, KonigCoverMatchesMatching) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t nl = 1 + rng.UniformIndex(6);
    const size_t nr = 1 + rng.UniformIndex(6);
    std::vector<std::pair<uint32_t, uint32_t>> edges;
    for (uint32_t l = 0; l < nl; ++l) {
      for (uint32_t r = 0; r < nr; ++r) {
        if (rng.Bernoulli(0.4)) edges.emplace_back(l, r);
      }
    }
    HopcroftKarp hk(nl, nr, edges);
    const size_t matching = hk.MaxMatching();
    const auto [cl, cr] = hk.MinVertexCover();
    size_t cover_size = 0;
    for (const bool b : cl) cover_size += b;
    for (const bool b : cr) cover_size += b;
    EXPECT_EQ(cover_size, matching);
    for (const auto& [l, r] : edges) {
      EXPECT_TRUE(cl[l] || cr[r]) << "uncovered edge";
    }
  }
}

// ---- Max flow ----

TEST(MaxFlow, SimpleDiamond) {
  MaxFlow flow(4);
  flow.AddEdge(0, 1, 3.0);
  flow.AddEdge(0, 2, 2.0);
  flow.AddEdge(1, 3, 2.0);
  flow.AddEdge(2, 3, 3.0);
  flow.AddEdge(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 3), 5.0);
}

TEST(MaxFlow, MinCutSides) {
  MaxFlow flow(3);
  flow.AddEdge(0, 1, 1.0);
  flow.AddEdge(1, 2, 10.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 2), 1.0);
  EXPECT_TRUE(flow.SourceSide(0));
  EXPECT_FALSE(flow.SourceSide(1));  // bottleneck is 0 -> 1
}

TEST(MaxFlow, SourceSideNeedsSolveAndRange) {
  MaxFlow flow(3);
  flow.AddEdge(0, 1, 1.0);
  EXPECT_DEATH(flow.SourceSide(0), "before Solve");
  flow.AddEdge(1, 2, 1.0);
  EXPECT_DOUBLE_EQ(flow.Solve(0, 2), 1.0);
  EXPECT_DEATH(flow.SourceSide(3), "out of range");
}

// Capacity of the cut (S, V \ S): the edges leaving S.
double CutCapacity(const std::vector<std::tuple<uint32_t, uint32_t, double>>&
                       edges,
                   const std::vector<bool>& in_s) {
  double cap = 0.0;
  for (const auto& [from, to, c] : edges) {
    if (in_s[from] && !in_s[to]) cap += c;
  }
  return cap;
}

class MaxFlowSweep : public ::testing::TestWithParam<int> {};

// Max-flow = min-cut against brute force over every s-t cut of a random
// network with parallel and antiparallel edges; the reported source side
// is itself a minimum cut.
TEST_P(MaxFlowSweep, MatchesBruteForceMinCut) {
  Rng rng(GetParam() * 7919 + 5);
  const size_t n = 2 + rng.UniformIndex(9);
  const uint32_t s = 0;
  const uint32_t t = static_cast<uint32_t>(n - 1);
  std::vector<std::tuple<uint32_t, uint32_t, double>> edges;
  const size_t m = rng.UniformIndex(3 * n + 1);
  for (size_t e = 0; e < m; ++e) {
    const auto from = static_cast<uint32_t>(rng.UniformIndex(n));
    const auto to = static_cast<uint32_t>(rng.UniformIndex(n));
    if (from == to) continue;
    const double cap = GetParam() % 2 == 0
                           ? static_cast<double>(rng.UniformIndex(6))
                           : 5.0 * rng.UniformDouble();
    edges.emplace_back(from, to, cap);
  }
  MaxFlow flow(n);
  for (const auto& [from, to, cap] : edges) flow.AddEdge(from, to, cap);
  const double value = flow.Solve(s, t);

  double brute = 1e18;
  std::vector<bool> in_s(n);
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    if (!((mask >> s) & 1ull) || ((mask >> t) & 1ull)) continue;
    for (uint32_t v = 0; v < n; ++v) in_s[v] = (mask >> v) & 1ull;
    brute = std::min(brute, CutCapacity(edges, in_s));
  }
  EXPECT_NEAR(value, brute, 1e-7);

  for (uint32_t v = 0; v < n; ++v) in_s[v] = flow.SourceSide(v);
  EXPECT_TRUE(in_s[s]);
  EXPECT_FALSE(in_s[t]);
  EXPECT_NEAR(CutCapacity(edges, in_s), value, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomNetworks, MaxFlowSweep,
                         ::testing::Range(1, 41));

// ---- Fractional vertex cover ----

TEST(FractionalVc, TriangleIsHalfEverywhere) {
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  const auto result = FractionalVertexCover(g, {1.0, 1.0, 1.0});
  EXPECT_NEAR(result.value, 1.5, 1e-9);
  for (const double x : result.x) EXPECT_NEAR(x, 0.5, 1e-9);
}

TEST(FractionalVc, BipartiteMatchesIntegralCover) {
  // Path 0-1-2: integral and fractional optimum are both 1 (vertex 1).
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  const auto result = FractionalVertexCover(g, {1.0, 1.0, 1.0});
  EXPECT_NEAR(result.value, 1.0, 1e-9);
}

TEST(FractionalVc, WeightsChangeTheOptimum) {
  SimpleGraph g(2);
  g.AddEdge(0, 1);
  const auto result = FractionalVertexCover(g, {10.0, 1.0});
  EXPECT_NEAR(result.value, 1.0, 1e-9);
  EXPECT_NEAR(result.x[1], 1.0, 1e-9);
  EXPECT_NEAR(result.x[0], 0.0, 1e-9);
}

class FractionalVcSweep : public ::testing::TestWithParam<int> {};

TEST_P(FractionalVcSweep, HalfIntegralFeasibleAndBelowIntegral) {
  Rng rng(GetParam());
  const size_t n = 4 + rng.UniformIndex(7);
  const SimpleGraph g = RandomGraph(n, 0.35, GetParam() * 977 + 1);
  std::vector<double> w(n);
  // Odd params draw integer weights, even ones non-integer weights.
  const bool integer = GetParam() % 2 == 1;
  for (auto& x : w) {
    x = integer ? 1.0 + rng.UniformIndex(4) : 0.1 + 3.0 * rng.UniformDouble();
  }
  const auto lp = FractionalVertexCover(g, w);
  // Independent oracle: the covering LP's optimum from the simplex.
  CoveringProblem problem;
  problem.costs = w;
  for (const auto& [a, b] : g.edges()) problem.sets.push_back({a, b});
  if (!problem.sets.empty()) {
    const LpSolution simplex = SolveCoveringLpRelaxation(problem);
    ASSERT_EQ(simplex.status, LpStatus::kOptimal);
    EXPECT_NEAR(lp.value, simplex.objective, 1e-7);
  } else {
    EXPECT_EQ(lp.value, 0.0);
  }
  // Half-integrality.
  for (const double x : lp.x) {
    EXPECT_TRUE(std::fabs(x) < 1e-7 || std::fabs(x - 0.5) < 1e-7 ||
                std::fabs(x - 1.0) < 1e-7)
        << x;
  }
  // Feasibility.
  for (const auto& [a, b] : g.edges()) {
    EXPECT_GE(lp.x[a] + lp.x[b], 1.0 - 1e-7);
  }
  // Value == sum w x, and lower-bounds the integral optimum within x2.
  double sum = 0.0;
  for (uint32_t v = 0; v < n; ++v) sum += w[v] * lp.x[v];
  EXPECT_NEAR(sum, lp.value, 1e-7);
  const double integral = BruteMinVertexCover(g, w);
  EXPECT_LE(lp.value, integral + 1e-7);
  EXPECT_GE(2.0 * lp.value + 1e-7, integral);
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, FractionalVcSweep,
                         ::testing::Range(1, 25));

// ---- Exact vertex cover ----

class VertexCoverSweep : public ::testing::TestWithParam<int> {};

TEST_P(VertexCoverSweep, MatchesBruteForce) {
  Rng rng(GetParam() * 31 + 7);
  const size_t n = 4 + rng.UniformIndex(9);
  const SimpleGraph g = RandomGraph(n, 0.3, GetParam() * 1013 + 3);
  std::vector<double> w(n);
  const bool weighted = GetParam() % 2 == 0;
  for (auto& x : w) x = weighted ? 1.0 + rng.UniformIndex(5) : 1.0;
  const auto result = MinWeightVertexCover(g, w);
  EXPECT_TRUE(result.optimal);
  EXPECT_NEAR(result.value, BruteMinVertexCover(g, w), 1e-7);
  // Returned cover is feasible and has the reported weight.
  double cover_weight = 0.0;
  for (uint32_t v = 0; v < n; ++v) {
    if (result.in_cover[v]) cover_weight += w[v];
  }
  EXPECT_NEAR(cover_weight, result.value, 1e-7);
  for (const auto& [a, b] : g.edges()) {
    EXPECT_TRUE(result.in_cover[a] || result.in_cover[b]);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, VertexCoverSweep,
                         ::testing::Range(1, 31));

TEST(VertexCover, EmptyGraph) {
  SimpleGraph g(5);
  const auto result = MinWeightVertexCover(g, std::vector<double>(5, 1.0));
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(VertexCover, K4NeedsThree) {
  SimpleGraph g(4);
  for (uint32_t a = 0; a < 4; ++a) {
    for (uint32_t b = a + 1; b < 4; ++b) g.AddEdge(a, b);
  }
  const auto result = MinWeightVertexCover(g, std::vector<double>(4, 1.0));
  EXPECT_DOUBLE_EQ(result.value, 3.0);
}

// ---- Maximal independent set counting ----

class MisSweep : public ::testing::TestWithParam<int> {};

TEST_P(MisSweep, MatchesBruteForce) {
  const SimpleGraph g = RandomGraph(4 + GetParam() % 9, 0.3,
                                    GetParam() * 131 + 17);
  const auto result = CountMaximalIndependentSets(g);
  EXPECT_TRUE(result.complete);
  EXPECT_DOUBLE_EQ(result.count, BruteCountMis(g));
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, MisSweep, ::testing::Range(1, 31));

TEST(MisCount, EmptyGraphHasOneMis) {
  SimpleGraph g(4);
  EXPECT_DOUBLE_EQ(CountMaximalIndependentSets(g).count, 1.0);
}

TEST(MisCount, TriangleHasThree) {
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_DOUBLE_EQ(CountMaximalIndependentSets(g).count, 3.0);
}

TEST(MisCount, MoonMoserGrowth) {
  // Disjoint triangles: 3^k maximal independent sets.
  SimpleGraph g(9);
  for (uint32_t t = 0; t < 3; ++t) {
    g.AddEdge(3 * t, 3 * t + 1);
    g.AddEdge(3 * t + 1, 3 * t + 2);
    g.AddEdge(3 * t, 3 * t + 2);
  }
  EXPECT_DOUBLE_EQ(CountMaximalIndependentSets(g).count, 27.0);
}

TEST(MisCount, DeadlineTruncates) {
  // A large co-triangle-free graph with many MIS; a zero-ish deadline
  // cannot finish.
  const SimpleGraph g = RandomGraph(60, 0.5, 5);
  MisCountOptions options;
  options.deadline_seconds = 1e-9;
  const auto result = CountMaximalIndependentSets(g, options);
  EXPECT_FALSE(result.complete);
}

// ---- P4-free recognition ----

TEST(P4Free, PathOnFourIsNot) {
  SimpleGraph g(4);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(2, 3);
  EXPECT_FALSE(IsP4Free(g));
  EXPECT_FALSE(FindInducedP4(g).empty());
}

TEST(P4Free, CompleteAndEmptyAreCographs) {
  SimpleGraph complete(5);
  for (uint32_t a = 0; a < 5; ++a) {
    for (uint32_t b = a + 1; b < 5; ++b) complete.AddEdge(a, b);
  }
  EXPECT_TRUE(IsP4Free(complete));
  SimpleGraph empty(5);
  EXPECT_TRUE(IsP4Free(empty));
}

TEST(P4Free, CompleteMultipartiteIsCograph) {
  // FD conflict graphs within a block are complete multipartite.
  SimpleGraph g(6);  // parts {0,1}, {2,3}, {4,5}
  for (uint32_t a = 0; a < 6; ++a) {
    for (uint32_t b = a + 1; b < 6; ++b) {
      if (a / 2 != b / 2) g.AddEdge(a, b);
    }
  }
  EXPECT_TRUE(IsP4Free(g));
}

class P4Sweep : public ::testing::TestWithParam<int> {};

TEST_P(P4Sweep, RecognizerAgreesWithBruteForce) {
  const SimpleGraph g = RandomGraph(5 + GetParam() % 6, 0.4,
                                    GetParam() * 733 + 5);
  EXPECT_EQ(IsP4Free(g), FindInducedP4(g).empty());
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, P4Sweep, ::testing::Range(1, 31));

// ---- MaxCut ----

TEST(MaxCut, TriangleCutsTwo) {
  SimpleGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  EXPECT_EQ(MaxCutExact(g).cut_edges, 2u);
}

TEST(MaxCut, BipartiteCutsEverything) {
  SimpleGraph g(6);
  for (uint32_t a = 0; a < 3; ++a) {
    for (uint32_t b = 3; b < 6; ++b) g.AddEdge(a, b);
  }
  EXPECT_EQ(MaxCutExact(g).cut_edges, 9u);
}

TEST(MaxCut, LocalSearchReachesExactOnSmallGraphs) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    const SimpleGraph g = RandomGraph(10, 0.4, trial * 51 + 2);
    const auto exact = MaxCutExact(g);
    const auto local = MaxCutLocalSearch(g, rng, 32);
    EXPECT_EQ(local.cut_edges, exact.cut_edges);
  }
}

}  // namespace
}  // namespace dbim
