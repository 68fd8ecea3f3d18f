#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "measures/basic_measures.h"
#include "measures/mc_measures.h"
#include "measures/registry.h"
#include "measures/repair_measures.h"
#include "measures/shapley.h"
#include "oracle/repair_oracle.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using testing::MakeRunningExample;
using testing::RunningExample;

class RunningExampleMeasures : public ::testing::Test {
 protected:
  RunningExampleMeasures()
      : example_(MakeRunningExample()),
        detector_(example_.schema, example_.dcs) {}

  double Eval(const InconsistencyMeasure& m, const Database& db) {
    return m.EvaluateFresh(detector_, db);
  }

  RunningExample example_;
  ViolationDetector detector_;
};

// ---- Table 1 of the paper: every measure on D0, D1, D2. ----

TEST_F(RunningExampleMeasures, DrasticMatchesTable1) {
  DrasticMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 1.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 1.0);
}

TEST_F(RunningExampleMeasures, MiCountMatchesTable1) {
  MiCountMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 7.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 5.0);
}

TEST_F(RunningExampleMeasures, ProblematicMatchesTable1) {
  ProblematicFactsMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 5.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 4.0);
}

TEST_F(RunningExampleMeasures, McMatchesTable1) {
  MaxConsistentSubsetsMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, McPrimeCoincidesWithMcForFds) {
  // FDs admit no self-inconsistencies, so I'_MC == I_MC (Example 5).
  McWithSelfInconsistenciesMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, MinRepairMatchesTable1) {
  MinRepairMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 3.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, LinRepairMatchesTable1) {
  LinRepairMeasure m;
  EXPECT_DOUBLE_EQ(Eval(m, example_.d0), 0.0);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d1), 2.5);
  EXPECT_DOUBLE_EQ(Eval(m, example_.d2), 2.0);
}

TEST_F(RunningExampleMeasures, LinRepairLowerBoundsMinRepair) {
  LinRepairMeasure lin;
  MinRepairMeasure exact;
  for (const Database* db : {&example_.d0, &example_.d1, &example_.d2}) {
    const double lin_value = Eval(lin, *db);
    const double exact_value = Eval(exact, *db);
    EXPECT_LE(lin_value, exact_value + 1e-9);
    // Integrality gap for FDs is at most 2 (witnesses have size two).
    EXPECT_GE(2.0 * lin_value + 1e-9, exact_value);
  }
}

TEST_F(RunningExampleMeasures, OptimalRepairIsConsistent) {
  MinRepairMeasure m;
  MeasureContext context(detector_, example_.d1);
  const std::vector<FactId> repair = m.OptimalRepair(context);
  EXPECT_EQ(repair.size(), 3u);
  Database reduced = example_.d1;
  for (const FactId id : repair) reduced.Delete(id);
  EXPECT_TRUE(detector_.Satisfies(reduced));
}

TEST_F(RunningExampleMeasures, FractionalSolutionIsFeasible) {
  LinRepairMeasure m;
  MeasureContext context(detector_, example_.d1);
  const auto solution = m.FractionalSolution(context);
  // Feasibility: x_a + x_b >= 1 on every conflicting pair.
  std::vector<double> x(10, 0.0);
  for (const auto& [id, value] : solution) x[id] = value;
  for (const FactSpan subset : context.violations()) {
    ASSERT_EQ(subset.size, 2u);
    EXPECT_GE(x[subset[0]] + x[subset[1]], 1.0 - 1e-9);
  }
}

// ---- Registry ----

TEST(MeasureRegistry, CreatesPaperRoster) {
  const auto all = CreateMeasures();
  ASSERT_EQ(all.size(), 7u);
  EXPECT_EQ(all[0]->name(), "I_d");
  EXPECT_EQ(all[1]->name(), "I_MI");
  EXPECT_EQ(all[2]->name(), "I_P");
  EXPECT_EQ(all[3]->name(), "I_MC");
  EXPECT_EQ(all[4]->name(), "I'_MC");
  EXPECT_EQ(all[5]->name(), "I_R");
  EXPECT_EQ(all[6]->name(), "I_lin_R");
}

TEST(MeasureRegistry, McCanBeExcluded) {
  RegistryOptions options;
  options.include_mc = false;
  const auto subset = CreateMeasures(options);
  ASSERT_EQ(subset.size(), 5u);
  EXPECT_EQ(subset[3]->name(), "I_R");
}

TEST(MeasureRegistry, AllMeasuresZeroOnConsistent) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  for (const auto& measure : CreateMeasures()) {
    EXPECT_DOUBLE_EQ(measure->EvaluateFresh(detector, example.d0), 0.0)
        << measure->name();
  }
}

// ---- I_MC positivity counterexample (Section 4) ----

TEST(McMeasure, ViolatesPositivityForDcs) {
  // D = {R(a), R(b)}, Sigma = { not R(a) }: MC = {{R(b)}} so I_MC = 0 on an
  // inconsistent database, while I'_MC = 1.
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  Database db(schema);
  db.Insert(Fact(r, {Value("a")}));
  db.Insert(Fact(r, {Value("b")}));
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Value("a"));
  const DenialConstraint not_a({r}, std::move(preds));
  const ViolationDetector detector(schema, {not_a});

  EXPECT_FALSE(detector.Satisfies(db));
  MaxConsistentSubsetsMeasure mc;
  McWithSelfInconsistenciesMeasure mc_prime;
  EXPECT_DOUBLE_EQ(mc.EvaluateFresh(detector, db), 0.0);
  EXPECT_DOUBLE_EQ(mc_prime.EvaluateFresh(detector, db), 1.0);
}

// ---- Self-inconsistency handling in repair measures ----

TEST(RepairMeasures, SelfInconsistentFactsAreForcedDeletions) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"High", "Low"});
  Database db(schema);
  db.Insert(Fact(r, {Value(1), Value(5)}));   // violates High >= Low
  db.Insert(Fact(r, {Value(9), Value(2)}));   // fine
  db.Insert(Fact(r, {Value(0), Value(10)}));  // violates
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kLt, Operand{0, 1});
  const DenialConstraint dc({r}, std::move(preds));
  const ViolationDetector detector(schema, {dc});

  MinRepairMeasure exact;
  LinRepairMeasure lin;
  EXPECT_DOUBLE_EQ(exact.EvaluateFresh(detector, db), 2.0);
  EXPECT_DOUBLE_EQ(lin.EvaluateFresh(detector, db), 2.0);
}

TEST(RepairMeasures, HonorsDeletionCosts) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  Database weighted = example.d2;
  // Make f2 and f4 expensive; the optimum should avoid them:
  // {f3, f5} do not cover edge (f2, f4), so the cheapest cover keeps one
  // of the expensive facts. Edges: {23,24,25,34,45}.
  weighted.set_deletion_cost(2, 10.0);
  weighted.set_deletion_cost(4, 10.0);
  MinRepairMeasure exact;
  // Candidates: {2,4} = 20, {2,3,4,...}. Cover must hit 24: cost >= 10.
  // {4, 2} vs {2, 3, 5} = 10+1+1 = 12 vs {4, 2}... best is {2, 4}? No:
  // {2,4} = 20; {4,2,...}. Try {2, 3, 4, 5} subsets: cover needs 2 or 3
  // for edge 23, and 2 or 4 for 24, 2 or 5 for 25, 3 or 4 for 34, 4 or 5
  // for 45. Choosing {2, 4} costs 20; {3, 5, 2} = 12; {3, 5, 4} = 12;
  // {2, 4} dominated. Minimum is 12.
  EXPECT_DOUBLE_EQ(exact.EvaluateFresh(detector, weighted), 12.0);
}

// ---- The repair measures against their definitions ----

// I_R, I_lin_R, OptimalRepair and FractionalSolution on small random
// databases with non-dyadic deletion costs, against the exhaustive oracles
// of oracle/repair_oracle.h. Sigma is the FD A -> B (one conflict
// component per A value) and a unary DC (self-inconsistent facts), plus on
// every other database a ternary DC whose witnesses are hyperedges (the
// covering ILP and simplex path).
TEST(RepairOracle, MeasuresMatchTheirDefinitions) {
  const auto schema = testing::MakeAbcSchema();
  std::vector<DenialConstraint> binary = ToDenialConstraints(
      {FunctionalDependency::Make(*schema, 0, {"A"}, {"B"})});
  binary.push_back(*ParseDc(*schema, 0, "!(t.A = 0 & t.C = 0)"));
  std::vector<DenialConstraint> kary = binary;
  kary.push_back(*ParseDc(
      *schema, 0, "!(t.B = t'.B & t'.B = t''.B & t.C < t'.C & t'.C < t''.C)"));
  size_t self_inconsistent = 0;
  size_t components = 0;
  size_t hyperedges = 0;
  size_t gaps = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    Database db = testing::MakeRandomDatabase(
        schema, 0, 8 + rng.UniformIndex(5), 3, seed * 7919);
    for (const FactId id : db.ids()) {
      db.set_deletion_cost(
          id, 0.1 * static_cast<double>(1 + rng.UniformIndex(29)));
    }
    const std::vector<DenialConstraint>& dcs = seed % 2 == 0 ? kary : binary;
    const ViolationDetector detector(schema, dcs);
    MeasureContext context(detector, db);
    const double i_r = MinRepairMeasure().Evaluate(context);
    const double i_lin_r = LinRepairMeasure().Evaluate(context);
    EXPECT_NEAR(i_r, testing::NaiveMinRepair(dcs, db), 1e-9);
    EXPECT_NEAR(i_lin_r, testing::NaiveLinRepair(dcs, db), 1e-7);

    // One optimal repair: consistent, and it weighs I_R.
    const std::vector<FactId> repair =
        MinRepairMeasure().OptimalRepair(context);
    EXPECT_TRUE(testing::SatisfiesAfterDeleting(dcs, db, repair));
    double repair_cost = 0.0;
    for (const FactId id : repair) repair_cost += db.deletion_cost(id);
    EXPECT_NEAR(repair_cost, i_r, 1e-9);

    // The fractional solution: in [0, 1], covers every minimal subset, and
    // weighs I_lin_R.
    std::map<FactId, double> x;
    double weight = 0.0;
    for (const auto& [id, value] :
         LinRepairMeasure().FractionalSolution(context)) {
      EXPECT_GE(value, -1e-9);
      EXPECT_LE(value, 1.0 + 1e-9);
      x[id] = value;
      weight += value * db.deletion_cost(id);
    }
    EXPECT_NEAR(weight, i_lin_r, 1e-7);
    for (const auto& subset : testing::NaiveMinimalSubsets(dcs, db).subsets) {
      double covered = 0.0;
      for (const FactId id : subset) covered += x[id];
      EXPECT_GE(covered, 1.0 - 1e-7);
    }

    const ConflictGraph& cg = context.conflict_graph();
    if (cg.num_self_inconsistent() > 0) ++self_inconsistent;
    if (cg.HasHyperedges()) ++hyperedges;
    if (i_r > i_lin_r + 1e-9) ++gaps;
    const auto [comp, num_comps] = cg.graph().Components();
    std::vector<size_t> size(num_comps, 0);
    for (const uint32_t c : comp) ++size[c];
    if (std::count_if(size.begin(), size.end(),
                      [](size_t s) { return s >= 2; }) >= 2) {
      ++components;
    }
  }
  // The sweep reaches every case the oracles are meant to cover.
  EXPECT_GE(self_inconsistent, 100u);
  EXPECT_GE(components, 100u);
  EXPECT_GE(hyperedges, 40u);
  EXPECT_GE(gaps, 30u);
}

// ---- Shapley attribution ----

TEST(Shapley, ClosedFormSumsToMiCount) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d1);
  const auto shares = ShapleyMiValues(context);
  double total = 0.0;
  for (const auto& [id, v] : shares) total += v;
  EXPECT_NEAR(total, 7.0, 1e-9);
}

TEST(Shapley, ClosedFormMatchesExactPermutationShapley) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d2);
  const auto closed = ShapleyMiValues(context);
  MiCountMeasure mi;
  const auto exact = ShapleySampled(mi, detector, example.d2, 0, 1);
  ASSERT_EQ(closed.size(), exact.size());
  for (size_t i = 0; i < closed.size(); ++i) {
    EXPECT_EQ(closed[i].first, exact[i].first);
    EXPECT_NEAR(closed[i].second, exact[i].second, 1e-9)
        << "fact " << closed[i].first;
  }
}

TEST(Shapley, HighestBlameOnMostConflictedFact) {
  const RunningExample example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  MeasureContext context(detector, example.d2);
  const auto shares = ShapleyMiValues(context);
  // In D2, f2 and f4 participate in 3 violations each; f1 in none.
  double f1 = -1.0;
  double f2 = -1.0;
  for (const auto& [id, v] : shares) {
    if (id == 1) f1 = v;
    if (id == 2) f2 = v;
  }
  EXPECT_DOUBLE_EQ(f1, 0.0);
  EXPECT_DOUBLE_EQ(f2, 1.5);
}

}  // namespace
}  // namespace dbim
