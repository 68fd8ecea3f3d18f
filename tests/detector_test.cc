#include <gtest/gtest.h>

#include "constraints/parser.h"
#include "test_util.h"
#include "violations/conflict_graph.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using testing::MakeRunningExample;

TEST(Detector, RunningExampleD1MinimalSubsets) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  // Example 4: seven violating pairs; all five facts problematic.
  EXPECT_EQ(violations.num_minimal_subsets(), 7u);
  EXPECT_EQ(violations.ProblematicFacts().size(), 5u);
  EXPECT_TRUE(violations.SelfInconsistentFacts().empty());
  EXPECT_EQ(violations.MaxSubsetSize(), 2u);
  EXPECT_FALSE(violations.truncated());
}

TEST(Detector, RunningExampleD2MinimalSubsets) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d2);
  EXPECT_EQ(violations.num_minimal_subsets(), 5u);
  const auto problematic = violations.ProblematicFacts();
  // All facts but f1.
  EXPECT_EQ(problematic, (std::vector<FactId>{2, 3, 4, 5}));
}

TEST(Detector, DeduplicatesAcrossConstraints) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  // {f2, f4} violates both FDs of the running example (continent differs
  // and country... actually continent via both constraints): the subset
  // count deduplicates while the (F, sigma) violation count does not.
  EXPECT_GT(violations.num_minimal_violations(),
            violations.num_minimal_subsets());
}

TEST(Detector, SatisfiesEarlyExit) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  EXPECT_TRUE(detector.Satisfies(example.d0));
  EXPECT_FALSE(detector.Satisfies(example.d1));
  EXPECT_FALSE(detector.Satisfies(example.d2));
}

TEST(Detector, RunningExampleMatchesOracle) {
  const auto example = MakeRunningExample();
  // Sigma's FDs take the blocked probe; the added DC has no cross-variable
  // equality and takes the nested-loop probe.
  std::vector<DenialConstraint> extended = example.dcs;
  extended.push_back(*ParseDc(*example.schema, example.relation,
                              "!(t.Id < t'.Id & t.Name > t'.Name)"));
  const std::vector<DenialConstraint>* sigmas[] = {&example.dcs, &extended};
  for (const auto* sigma : sigmas) {
    const ViolationDetector detector(example.schema, *sigma);
    for (const Database* db : {&example.d0, &example.d1, &example.d2}) {
      testing::ExpectMatchesOracle(*sigma, *db, detector.FindViolations(*db));
    }
  }
}

TEST(Detector, UnaryConstraintsYieldSingletons) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("Stock", {"High", "Low"});
  const auto dc = ParseDc(*schema, r, "!(t.High < t.Low)");
  const ViolationDetector detector(schema, {*dc});
  Database db(schema);
  const FactId bad = db.Insert(Fact(r, {Value(1), Value(5)}));
  db.Insert(Fact(r, {Value(5), Value(1)}));
  const ViolationSet violations = detector.FindViolations(db);
  EXPECT_EQ(violations.num_minimal_subsets(), 1u);
  EXPECT_EQ(violations.SelfInconsistentFacts(), std::vector<FactId>{bad});
}

TEST(Detector, PairsContainingSelfInconsistentFactsAreNotMinimal) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  // Unary: !(t.A > 10); binary: the FD A -> B.
  const auto unary = ParseDc(*schema, r, "!(t.A > 10)");
  const auto fd = ParseDc(*schema, r, "!(t.A = t'.A & t.B != t'.B)");
  const ViolationDetector detector(schema, {*unary, *fd});
  Database db(schema);
  const FactId bad = db.Insert(Fact(r, {Value(50), Value(1)}));  // self-inc
  db.Insert(Fact(r, {Value(50), Value(2)}));  // also self-inc (A > 10)
  db.Insert(Fact(r, {Value(3), Value(1)}));
  db.Insert(Fact(r, {Value(3), Value(2)}));  // FD pair with previous
  const ViolationSet violations = detector.FindViolations(db);
  // Minimal subsets: {0}, {1} (self-inconsistent) and {2,3} (FD pair).
  // The pair {0,1} violates the FD too but is not *minimal*.
  EXPECT_EQ(violations.num_minimal_subsets(), 3u);
  EXPECT_EQ(violations.SelfInconsistentFacts().size(), 2u);
  EXPECT_EQ(violations.SelfInconsistentFacts()[0], bad);
}

TEST(Detector, OrderDcFindsAntiChainViolations) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("Adult", {"Gain", "Loss"});
  const auto dc = ParseDc(*schema, r, "!(t.Gain < t'.Gain & t.Loss < t'.Loss)");
  const ViolationDetector detector(schema, {*dc});
  Database db(schema);
  db.Insert(Fact(r, {Value(1), Value(1)}));
  db.Insert(Fact(r, {Value(2), Value(2)}));  // dominates fact 0
  db.Insert(Fact(r, {Value(3), Value(0)}));  // incomparable with 0; gain
                                             // dominates 1 but loss lower
  const ViolationSet violations = detector.FindViolations(db);
  ASSERT_EQ(violations.num_minimal_subsets(), 1u);
  EXPECT_EQ(violations.minimal_subsets()[0], (std::vector<FactId>{0, 1}));
}

TEST(Detector, TernaryDcMinimality) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const RelationId s = schema->AddRelation("S", {"A", "B"});
  // sigma_1 of Proposition 1: R(x,y), S(x,z), S(x,w) => z = w.
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{2, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kNe, Operand{2, 1});
  const DenialConstraint sigma1({r, s, s}, std::move(preds));
  const ViolationDetector detector(schema, {sigma1});
  Database db(schema);
  db.Insert(Fact(r, {Value(1), Value(0)}));
  db.Insert(Fact(s, {Value(1), Value("c")}));
  db.Insert(Fact(s, {Value(1), Value("d")}));
  db.Insert(Fact(s, {Value(2), Value("e")}));  // different key: uninvolved
  const ViolationSet violations = detector.FindViolations(db);
  ASSERT_EQ(violations.num_minimal_subsets(), 1u);
  EXPECT_EQ(violations.minimal_subsets()[0], (std::vector<FactId>{0, 1, 2}));
  EXPECT_EQ(violations.MaxSubsetSize(), 3u);
}

TEST(Detector, TernaryWitnessSupersededByBinaryIsFiltered) {
  auto schema = std::make_shared<Schema>();
  const RelationId s = schema->AddRelation("S", {"A", "B"});
  // Ternary: S(x,a), S(x,b), S(x,c) pairwise different B values; binary FD.
  std::vector<Predicate> p3;
  p3.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  p3.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{2, 0});
  p3.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
  p3.emplace_back(Operand{1, 1}, CompareOp::kNe, Operand{2, 1});
  p3.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{2, 1});
  const DenialConstraint ternary({s, s, s}, std::move(p3));
  std::vector<Predicate> p2;
  p2.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  p2.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
  const DenialConstraint fd({s, s}, std::move(p2));
  const ViolationDetector detector(schema, {ternary, fd});
  Database db(schema);
  db.Insert(Fact(s, {Value(1), Value("a")}));
  db.Insert(Fact(s, {Value(1), Value("b")}));
  db.Insert(Fact(s, {Value(1), Value("c")}));
  const ViolationSet violations = detector.FindViolations(db);
  // The three FD pairs are minimal; the ternary witness {0,1,2} is a
  // superset of each pair and must be filtered out.
  EXPECT_EQ(violations.num_minimal_subsets(), 3u);
  EXPECT_EQ(violations.MaxSubsetSize(), 2u);
}

TEST(Detector, MaxSubsetsCapTruncates) {
  const auto example = MakeRunningExample();
  DetectorOptions options;
  options.max_subsets = 3;
  const ViolationDetector detector(example.schema, example.dcs, options);
  const ViolationSet violations = detector.FindViolations(example.d1);
  EXPECT_EQ(violations.num_minimal_subsets(), 3u);
  EXPECT_TRUE(violations.truncated());
}

TEST(Detector, FindViolationsInvolvingFiltersById) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet involving =
      detector.FindViolationsInvolving(example.d1, 1);
  // f1 participates only in the pair {f1, f5}.
  ASSERT_EQ(involving.num_minimal_subsets(), 1u);
  EXPECT_EQ(involving.minimal_subsets()[0], (std::vector<FactId>{1, 5}));
}

TEST(Detector, ViolatingPairRatio) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  // 7 violating pairs out of C(5,2) = 10.
  EXPECT_DOUBLE_EQ(violations.ViolatingPairRatio(example.d1.size()), 0.7);
}

// ---- ConflictGraph ----

TEST(ConflictGraph, BuildsFromRunningExample) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  const ConflictGraph graph = ConflictGraph::Build(example.d1, violations);
  EXPECT_EQ(graph.num_vertices(), 5u);
  EXPECT_EQ(graph.edges().size(), 7u);
  EXPECT_FALSE(graph.HasHyperedges());
  EXPECT_EQ(graph.num_self_inconsistent(), 0u);
  // Vertex <-> fact mapping round-trips.
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(graph.vertex_of(graph.fact_of(v)), v);
  }
}

TEST(ConflictGraph, WeightsReflectDeletionCosts) {
  const auto example = MakeRunningExample();
  Database weighted = example.d1;
  weighted.set_deletion_cost(2, 7.5);
  const ViolationDetector detector(example.schema, example.dcs);
  const ConflictGraph graph =
      ConflictGraph::Build(weighted, detector.FindViolations(weighted));
  EXPECT_DOUBLE_EQ(graph.weights()[graph.vertex_of(2)], 7.5);
  EXPECT_DOUBLE_EQ(graph.weights()[graph.vertex_of(3)], 1.0);
}

TEST(ConflictGraph, AdjacencyListsMatchEdges) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ConflictGraph graph = ConflictGraph::Build(
      example.d2, detector.FindViolations(example.d2));
  const auto adj = graph.AdjacencyLists();
  size_t degree_sum = 0;
  for (const auto& nbrs : adj) degree_sum += nbrs.size();
  EXPECT_EQ(degree_sum, 2 * graph.edges().size());
}

}  // namespace
}  // namespace dbim
