#include <cmath>

#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/registry.h"
#include "lp/covering.h"
#include "measures/repair_measures.h"
#include "oracle/hopcroft_karp.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

// End-to-end sweeps over random databases: the cross-solver invariants that
// must hold for every input, exercised through the full pipeline
// (detection -> conflict graph -> matching/flow/LP/B&B).
class PipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSweep, MeasureInvariantsOnRandomFdDatabases) {
  auto schema = testing::MakeAbcSchema();
  const RelationId rel = 0;
  const Database db = testing::MakeRandomDatabase(schema, rel, 14, 3,
                                                  GetParam() * 7919 + 1);
  const std::vector<FunctionalDependency> fds = {
      FunctionalDependency::Make(*schema, rel, {"A"}, {"B"}),
      FunctionalDependency::Make(*schema, rel, {"B"}, {"C"}),
  };
  const ViolationDetector detector(schema, ToDenialConstraints(fds));
  MeasureContext context(detector, db);

  const auto measures = CreateMeasures();
  std::vector<double> values;
  for (const auto& measure : measures) {
    values.push_back(measure->Evaluate(context));
  }
  const double drastic = values[0];
  const double mi = values[1];
  const double problematic = values[2];
  const double repair = values[5];
  const double lin = values[6];

  // All measures agree on consistency.
  const bool consistent = detector.Satisfies(db);
  for (size_t i = 0; i < values.size(); ++i) {
    if (std::isnan(values[i])) continue;
    EXPECT_EQ(values[i] == 0.0, consistent) << measures[i]->name();
  }

  // Structural inequalities.
  EXPECT_LE(drastic, 1.0);
  EXPECT_LE(lin, repair + 1e-9);          // LP relaxation lower-bounds ILP
  EXPECT_GE(2.0 * lin + 1e-9, repair);    // FD integrality gap <= 2
  EXPECT_LE(repair, problematic + 1e-9);  // deleting problematic facts works
  // Every minimal subset needs a distinct... at least ceil(p/2) facts can
  // only pin down MI >= p/2 relations; instead check MI bounds problematic
  // from above pairwise: each subset contributes <= 2 facts.
  EXPECT_LE(problematic, 2.0 * mi + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, PipelineSweep,
                         ::testing::Range(1, 41));

// I_lin_R graph fast path vs the simplex on the same covering instance.
class LinRepairCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(LinRepairCrossCheck, FlowAndSimplexAgree) {
  auto schema = testing::MakeAbcSchema();
  const Database db = testing::MakeRandomDatabase(schema, 0, 12, 3,
                                                  GetParam() * 131 + 5);
  const std::vector<FunctionalDependency> fds = {
      FunctionalDependency::Make(*schema, 0, {"A"}, {"B"}),
  };
  const ViolationDetector detector(schema, ToDenialConstraints(fds));
  MeasureContext context(detector, db);
  LinRepairMeasure lin;
  const double flow_value = lin.Evaluate(context);

  // Rebuild the same LP via the generic covering relaxation.
  CoveringProblem problem;
  const auto& cg = context.conflict_graph();
  problem.costs.assign(cg.num_vertices(), 1.0);
  for (const auto& [a, b] : cg.edges()) {
    problem.sets.push_back({std::min(a, b), std::max(a, b)});
  }
  if (problem.sets.empty()) {
    EXPECT_DOUBLE_EQ(flow_value, 0.0);
    return;
  }
  const LpSolution lp = SolveCoveringLpRelaxation(problem);
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  EXPECT_NEAR(flow_value, lp.objective, 1e-7);
}

// Unit-cost I_lin_R against an oracle that shares no solver with it: every
// self-inconsistent fact is deleted outright, and the fractional vertex
// cover of the rest of the conflict graph is half the maximum matching of
// its bipartite double cover (König duality), found by Hopcroft–Karp.
TEST_P(LinRepairCrossCheck, EqualsHalfTheDoubleCoverMatching) {
  auto schema = testing::MakeAbcSchema();
  const Database db = testing::MakeRandomDatabase(schema, 0, 14, 3,
                                                  GetParam() * 977 + 3);
  std::vector<DenialConstraint> dcs = ToDenialConstraints(
      {FunctionalDependency::Make(*schema, 0, {"A"}, {"B"}),
       FunctionalDependency::Make(*schema, 0, {"B"}, {"C"})});
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = 0 & t.C = 0)"));
  const ViolationDetector detector(schema, dcs);
  MeasureContext context(detector, db);
  const ConflictGraph& cg = context.conflict_graph();
  ASSERT_FALSE(cg.HasHyperedges());
  std::vector<std::pair<uint32_t, uint32_t>> double_cover;
  for (const auto& [a, b] : cg.edges()) {
    double_cover.emplace_back(a, b);
    double_cover.emplace_back(b, a);
  }
  testing::HopcroftKarp matching(cg.num_vertices(), cg.num_vertices(),
                                 double_cover);
  const double expected = static_cast<double>(cg.num_self_inconsistent()) +
                          0.5 * static_cast<double>(matching.MaxMatching());
  EXPECT_NEAR(LinRepairMeasure().Evaluate(context), expected, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, LinRepairCrossCheck,
                         ::testing::Range(1, 31));

// The full experiment pipeline in miniature: generate, noise, measure.
TEST(Pipeline, NoisyAirportTrajectoryIsMonotoneForRepairMeasures) {
  const Dataset dataset = MakeDataset(DatasetId::kAirport, 150, 3);
  const ViolationDetector detector(dataset.schema, dataset.constraints);
  const CoNoiseGenerator noise(dataset.data, dataset.constraints);
  Database db = dataset.data;
  Rng rng(7);

  LinRepairMeasure lin;
  double last = 0.0;
  size_t decreases = 0;
  for (int iteration = 0; iteration < 30; ++iteration) {
    noise.Step(db, rng);
    const double value = lin.EvaluateFresh(detector, db);
    if (value < last - 1e-9) ++decreases;
    last = value;
  }
  EXPECT_GT(last, 0.0);
  // CONoise may occasionally resolve violations, but the trend is upward
  // (the paper: "the number of newly introduced violations is usually
  // significantly higher than the number of resolved ones").
  EXPECT_LE(decreases, 10u);
}

TEST(Pipeline, MeasuresAreInvariantUnderEquivalentConstraintSets) {
  // I(Sigma, D) must be invariant under logical equivalence: the joint FD
  // A -> BC and the split {A -> B, A -> C} produce identical values.
  auto schema = testing::MakeAbcSchema();
  const Database db =
      testing::MakeRandomDatabase(schema, 0, 12, 2, 99);
  const std::vector<FunctionalDependency> joint = {
      FunctionalDependency::Make(*schema, 0, {"A"}, {"B", "C"})};
  const std::vector<FunctionalDependency> split = {
      FunctionalDependency::Make(*schema, 0, {"A"}, {"B"}),
      FunctionalDependency::Make(*schema, 0, {"A"}, {"C"})};
  ASSERT_TRUE(Equivalent(joint, split));
  const ViolationDetector dj(schema, ToDenialConstraints(joint));
  const ViolationDetector ds(schema, ToDenialConstraints(split));
  for (const auto& measure : CreateMeasures()) {
    const double a = measure->EvaluateFresh(dj, db);
    const double b = measure->EvaluateFresh(ds, db);
    if (std::isnan(a) || std::isnan(b)) continue;
    EXPECT_NEAR(a, b, 1e-9) << measure->name();
  }
}

TEST(Pipeline, WeightedRepairScalesLinearly) {
  // Scaling all deletion costs by c scales I_R and I_lin_R by c.
  const auto example = testing::MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  Database scaled = example.d1;
  for (const FactId id : scaled.ids()) scaled.set_deletion_cost(id, 3.0);
  MinRepairMeasure repair;
  LinRepairMeasure lin;
  EXPECT_NEAR(repair.EvaluateFresh(detector, scaled), 9.0, 1e-9);
  EXPECT_NEAR(lin.EvaluateFresh(detector, scaled), 7.5, 1e-9);
}

TEST(Pipeline, DeletingOptimalRepairZeroesEveryMeasure) {
  const Dataset dataset = MakeDataset(DatasetId::kFood, 120, 13);
  const CoNoiseGenerator noise(dataset.data, dataset.constraints);
  const ViolationDetector detector(dataset.schema, dataset.constraints);
  Database db = dataset.data;
  Rng rng(17);
  for (int i = 0; i < 15; ++i) noise.Step(db, rng);
  ASSERT_FALSE(detector.Satisfies(db));

  MinRepairMeasure repair;
  MeasureContext context(detector, db);
  for (const FactId id : repair.OptimalRepair(context)) {
    db.Delete(id);
  }
  for (const auto& measure : CreateMeasures()) {
    const double value = measure->EvaluateFresh(detector, db);
    if (std::isnan(value)) continue;
    EXPECT_DOUBLE_EQ(value, 0.0) << measure->name();
  }
}

}  // namespace
}  // namespace dbim
