#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "lp/covering.h"
#include "lp/simplex.h"

namespace dbim {
namespace {

// ---- Simplex ----

TEST(Simplex, SolvesTwoVariableCovering) {
  // min x0 + x1  s.t. x0 + x1 >= 1, 0 <= x <= 1.
  LpModel model;
  const int x0 = model.AddVariable(1.0, 1.0);
  const int x1 = model.AddVariable(1.0, 1.0);
  model.AddConstraint({{{x0, 1.0}, {x1, 1.0}}, LpSense::kGreaterEq, 1.0});
  const LpSolution s = SolveLp(model);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
}

TEST(Simplex, WeightedObjectivePicksCheapVariable) {
  LpModel model;
  const int x0 = model.AddVariable(5.0, 1.0);
  const int x1 = model.AddVariable(1.0, 1.0);
  model.AddConstraint({{{x0, 1.0}, {x1, 1.0}}, LpSense::kGreaterEq, 1.0});
  const LpSolution s = SolveLp(model);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
  EXPECT_NEAR(s.x[1], 1.0, 1e-9);
}

TEST(Simplex, TriangleCoveringLp) {
  // The K3 fractional vertex cover: optimum 1.5.
  LpModel model;
  const int x0 = model.AddVariable(1.0, 1.0);
  const int x1 = model.AddVariable(1.0, 1.0);
  const int x2 = model.AddVariable(1.0, 1.0);
  model.AddConstraint({{{x0, 1.0}, {x1, 1.0}}, LpSense::kGreaterEq, 1.0});
  model.AddConstraint({{{x1, 1.0}, {x2, 1.0}}, LpSense::kGreaterEq, 1.0});
  model.AddConstraint({{{x0, 1.0}, {x2, 1.0}}, LpSense::kGreaterEq, 1.0});
  const LpSolution s = SolveLp(model);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-9);
}

TEST(Simplex, DetectsInfeasibility) {
  // x0 >= 2 with upper bound 1.
  LpModel model;
  const int x0 = model.AddVariable(1.0, 1.0);
  model.AddConstraint({{{x0, 1.0}}, LpSense::kGreaterEq, 2.0});
  EXPECT_EQ(SolveLp(model).status, LpStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  // min -x0, x0 unbounded above.
  LpModel model;
  const int x0 = model.AddVariable(-1.0);
  model.AddConstraint({{{x0, 1.0}}, LpSense::kGreaterEq, 0.0});
  EXPECT_EQ(SolveLp(model).status, LpStatus::kUnbounded);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x0 + 2 x1  s.t. x0 + x1 = 3, x0 <= 2.
  LpModel model;
  const int x0 = model.AddVariable(1.0, 2.0);
  const int x1 = model.AddVariable(2.0);
  model.AddConstraint({{{x0, 1.0}, {x1, 1.0}}, LpSense::kEqual, 3.0});
  const LpSolution s = SolveLp(model);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-9);  // x0 = 2, x1 = 1
}

TEST(Simplex, HandlesLessEqAndNegativeRhs) {
  // min -x0 - x1  s.t. x0 + x1 <= 4, -x0 <= -1 (i.e. x0 >= 1), x <= 3.
  LpModel model;
  const int x0 = model.AddVariable(-1.0, 3.0);
  const int x1 = model.AddVariable(-1.0, 3.0);
  model.AddConstraint({{{x0, 1.0}, {x1, 1.0}}, LpSense::kLessEq, 4.0});
  model.AddConstraint({{{x0, -1.0}}, LpSense::kLessEq, -1.0});
  const LpSolution s = SolveLp(model);
  ASSERT_EQ(s.status, LpStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, 1e-9);
}

// ---- Covering ILP ----

CoveringProblem Triangle() {
  CoveringProblem p;
  p.costs = {1.0, 1.0, 1.0};
  p.sets = {{0, 1}, {1, 2}, {0, 2}};
  return p;
}

// The covering ILP, rooted at the problem's own LP relaxation.
CoveringResult SolveIlp(const CoveringProblem& p) {
  return SolveCoveringIlp(p, SolveCoveringLpRelaxation(p).x);
}

TEST(Covering, TriangleIlpVsLp) {
  const auto ilp = SolveIlp(Triangle());
  EXPECT_TRUE(ilp.optimal);
  EXPECT_NEAR(ilp.value, 2.0, 1e-9);
  // It branches; the root reads the given relaxation and solves no LP.
  EXPECT_GT(ilp.bb_nodes, 1u);
  EXPECT_LT(ilp.lp_solves, ilp.bb_nodes);
  const auto lp = SolveCoveringLpRelaxation(Triangle());
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_NEAR(lp.objective, 1.5, 1e-9);
}

TEST(Covering, EmptyProblemIsFree) {
  CoveringProblem p;
  p.costs = {1.0, 1.0};
  const auto result = SolveIlp(p);
  EXPECT_DOUBLE_EQ(result.value, 0.0);
}

TEST(Covering, SingletonSetsArePropagated) {
  CoveringProblem p;
  p.costs = {3.0, 1.0};
  p.sets = {{0}, {0, 1}};
  const auto result = SolveIlp(p);
  EXPECT_NEAR(result.value, 3.0, 1e-9);
  EXPECT_TRUE(result.chosen[0]);
  EXPECT_FALSE(result.chosen[1]);
  // A forced singleton's cost counts toward the root's bound, which with
  // the given relaxation closes the root: no LP is solved.
  p.costs = {1.0, 1.0, 1.0, 2.0};
  p.sets = {{0, 1, 2}, {3}};
  const auto closed = SolveIlp(p);
  EXPECT_NEAR(closed.value, 3.0, 1e-9);
  EXPECT_EQ(closed.bb_nodes, 1u);
  EXPECT_EQ(closed.lp_solves, 0u);
}

TEST(Covering, HyperedgeInstance) {
  // Three 3-element sets overlapping in variable 0.
  CoveringProblem p;
  p.costs = {1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};
  p.sets = {{0, 1, 2}, {0, 3, 4}, {0, 5, 6}};
  const auto result = SolveIlp(p);
  EXPECT_NEAR(result.value, 1.0, 1e-9);
  EXPECT_TRUE(result.chosen[0]);
  // LP relaxation can also pick x0 = 1 (it is already integral-optimal).
  const auto lp = SolveCoveringLpRelaxation(p);
  EXPECT_NEAR(lp.objective, 1.0, 1e-9);
}

double BruteCover(const CoveringProblem& p) {
  const size_t n = p.costs.size();
  double best = 1e18;
  for (uint64_t mask = 0; mask < (1ull << n); ++mask) {
    bool ok = true;
    for (const auto& set : p.sets) {
      bool hit = false;
      for (const uint32_t v : set) {
        if ((mask >> v) & 1ull) {
          hit = true;
          break;
        }
      }
      if (!hit) {
        ok = false;
        break;
      }
    }
    if (!ok) continue;
    double cost = 0.0;
    for (uint32_t v = 0; v < n; ++v) {
      if ((mask >> v) & 1ull) cost += p.costs[v];
    }
    best = std::min(best, cost);
  }
  return best;
}

class CoveringSweep : public ::testing::TestWithParam<int> {};

TEST_P(CoveringSweep, MatchesBruteForceOnRandomInstances) {
  Rng rng(GetParam() * 73 + 11);
  CoveringProblem p;
  const size_t n = 5 + rng.UniformIndex(6);
  p.costs.resize(n);
  for (auto& c : p.costs) c = 1.0 + rng.UniformIndex(4);
  const size_t sets = 3 + rng.UniformIndex(8);
  for (size_t s = 0; s < sets; ++s) {
    std::vector<uint32_t> set;
    const size_t size = 2 + rng.UniformIndex(3);
    while (set.size() < size) {
      const uint32_t v = static_cast<uint32_t>(rng.UniformIndex(n));
      if (std::find(set.begin(), set.end(), v) == set.end()) {
        set.push_back(v);
      }
    }
    std::sort(set.begin(), set.end());
    p.sets.push_back(std::move(set));
  }
  const auto result = SolveIlp(p);
  EXPECT_TRUE(result.optimal);
  EXPECT_NEAR(result.value, BruteCover(p), 1e-7);
  // LP relaxation lower-bounds the ILP.
  const auto lp = SolveCoveringLpRelaxation(p);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_LE(lp.objective, result.value + 1e-7);
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, CoveringSweep,
                         ::testing::Range(1, 31));

}  // namespace
}  // namespace dbim
