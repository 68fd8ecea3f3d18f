#include <gtest/gtest.h>

#include "constraints/dc.h"
#include "constraints/egd.h"
#include "constraints/fd.h"
#include "constraints/parser.h"
#include "test_util.h"

namespace dbim {
namespace {

using testing::BodyHolds;
using testing::MakesSelfInconsistent;

// ---- CompareOp ----

TEST(CompareOp, Evaluation) {
  EXPECT_TRUE(EvalCompare(CompareOp::kEq, Value(1), Value(1)));
  EXPECT_TRUE(EvalCompare(CompareOp::kNe, Value(1), Value(2)));
  EXPECT_TRUE(EvalCompare(CompareOp::kLt, Value(1), Value(2)));
  EXPECT_TRUE(EvalCompare(CompareOp::kLe, Value(2), Value(2)));
  EXPECT_TRUE(EvalCompare(CompareOp::kGt, Value("b"), Value("a")));
  EXPECT_TRUE(EvalCompare(CompareOp::kGe, Value(2.5), Value(2.5)));
  EXPECT_FALSE(EvalCompare(CompareOp::kLt, Value(2), Value(2)));
}

TEST(CompareOp, NegationIsComplement) {
  const Value a(3);
  const Value b(5);
  for (const CompareOp op :
       {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_NE(EvalCompare(op, a, b), EvalCompare(NegateOp(op), a, b));
    EXPECT_NE(EvalCompare(op, a, a), EvalCompare(NegateOp(op), a, a));
  }
}

TEST(CompareOp, FlipMirrorsArguments) {
  const Value a(3);
  const Value b(5);
  for (const CompareOp op :
       {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt, CompareOp::kLe,
        CompareOp::kGt, CompareOp::kGe}) {
    EXPECT_EQ(EvalCompare(op, a, b), EvalCompare(FlipOp(op), b, a));
  }
}

// ---- DenialConstraint ----

class DcTest : public ::testing::Test {
 protected:
  DcTest() {
    auto schema = std::make_shared<Schema>();
    rel_ = schema->AddRelation("R", {"A", "B", "C"});
    schema_ = schema;
  }

  Fact F(int64_t a, int64_t b, int64_t c) const {
    return Fact(rel_, {Value(a), Value(b), Value(c)});
  }

  std::shared_ptr<const Schema> schema_;
  RelationId rel_;
};

TEST_F(DcTest, BinaryBodyEvaluation) {
  // !(t.A = t'.A & t.B != t'.B) : the FD A -> B.
  const DenialConstraint dc = DcBuilder(*schema_, rel_)
                                  .Cross("A", CompareOp::kEq, "A")
                                  .Cross("B", CompareOp::kNe, "B")
                                  .BuildBinary();
  EXPECT_TRUE(BodyHolds(dc, F(1, 2, 0), F(1, 3, 0)));
  EXPECT_FALSE(BodyHolds(dc, F(1, 2, 0), F(1, 2, 9)));
  EXPECT_FALSE(BodyHolds(dc, F(1, 2, 0), F(2, 3, 0)));
}

TEST_F(DcTest, UnaryBodyAndSelfInconsistency) {
  // !(t.A > t.B)
  const DenialConstraint dc = DcBuilder(*schema_, rel_)
                                  .Within(0, "A", CompareOp::kGt, "B")
                                  .BuildUnary();
  EXPECT_TRUE(MakesSelfInconsistent(dc, F(5, 1, 0)));
  EXPECT_FALSE(MakesSelfInconsistent(dc, F(1, 5, 0)));
}

TEST_F(DcTest, BinaryDcSelfInconsistencyViaRepeatedAssignment) {
  // !(t.A = t'.B): a fact with A == B is a violation on its own.
  const DenialConstraint dc = DcBuilder(*schema_, rel_)
                                  .Cross("A", CompareOp::kEq, "B")
                                  .BuildBinary();
  EXPECT_TRUE(MakesSelfInconsistent(dc, F(4, 4, 0)));
  EXPECT_FALSE(MakesSelfInconsistent(dc, F(4, 5, 0)));
}

TEST_F(DcTest, TriviallyNotUnaryDetection) {
  const DenialConstraint fd = DcBuilder(*schema_, rel_)
                                  .Cross("A", CompareOp::kEq, "A")
                                  .Cross("B", CompareOp::kNe, "B")
                                  .BuildBinary();
  EXPECT_TRUE(fd.TriviallyNotUnary());
  const DenialConstraint cross = DcBuilder(*schema_, rel_)
                                     .Cross("A", CompareOp::kEq, "B")
                                     .BuildBinary();
  EXPECT_FALSE(cross.TriviallyNotUnary());
}

TEST_F(DcTest, ConstantPredicates) {
  // !(t.A > 100)
  const DenialConstraint dc = DcBuilder(*schema_, rel_)
                                  .Const(0, "A", CompareOp::kGt, Value(100))
                                  .BuildUnary();
  EXPECT_TRUE(MakesSelfInconsistent(dc, F(150, 0, 0)));
  EXPECT_FALSE(MakesSelfInconsistent(dc, F(100, 0, 0)));
}

TEST_F(DcTest, ToStringRendersReadably) {
  const DenialConstraint dc = DcBuilder(*schema_, rel_)
                                  .Cross("A", CompareOp::kEq, "A")
                                  .Cross("B", CompareOp::kNe, "B")
                                  .BuildBinary();
  EXPECT_EQ(dc.ToString(*schema_), "!(t[A] = t'[A] & t[B] != t'[B])");
}

// ---- FDs ----

TEST(Fd, ToDenialConstraintsOnePerRhsAttribute) {
  const auto example = testing::MakeRunningExample();
  // Municipality -> {Continent, Country} yields 2 DCs, Country ->
  // Continent yields 1.
  EXPECT_EQ(example.fds[0].ToDenialConstraints().size(), 2u);
  EXPECT_EQ(example.fds[1].ToDenialConstraints().size(), 1u);
  EXPECT_EQ(example.dcs.size(), 3u);
}

TEST(Fd, AttributeClosure) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B", "C", "D"});
  const std::vector<FunctionalDependency> fds = {
      FunctionalDependency::Make(*schema, r, {"A"}, {"B"}),
      FunctionalDependency::Make(*schema, r, {"B"}, {"C"}),
  };
  const auto closure = AttributeClosure(fds, r, {0});
  EXPECT_EQ(closure, (std::vector<AttrIndex>{0, 1, 2}));
}

TEST(Fd, EntailmentViaClosure) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B", "C"});
  const std::vector<FunctionalDependency> sigma = {
      FunctionalDependency::Make(*schema, r, {"A"}, {"B"}),
      FunctionalDependency::Make(*schema, r, {"B"}, {"C"}),
  };
  // Transitivity: A -> C.
  EXPECT_TRUE(Entails(sigma, FunctionalDependency::Make(*schema, r, {"A"},
                                                        {"C"})));
  EXPECT_FALSE(Entails(sigma, FunctionalDependency::Make(*schema, r, {"C"},
                                                         {"A"})));
}

TEST(Fd, EquivalenceOfDifferentPresentations) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B", "C"});
  // {A -> BC} vs {A -> B, A -> C}.
  const std::vector<FunctionalDependency> joint = {
      FunctionalDependency::Make(*schema, r, {"A"}, {"B", "C"})};
  const std::vector<FunctionalDependency> split = {
      FunctionalDependency::Make(*schema, r, {"A"}, {"B"}),
      FunctionalDependency::Make(*schema, r, {"A"}, {"C"})};
  EXPECT_TRUE(Equivalent(joint, split));
  const std::vector<FunctionalDependency> weaker = {
      FunctionalDependency::Make(*schema, r, {"A"}, {"B"})};
  EXPECT_TRUE(EntailsAll(joint, weaker));
  EXPECT_FALSE(EntailsAll(weaker, joint));
}

TEST(Fd, RunningExampleEntailments) {
  const auto example = testing::MakeRunningExample();
  // Municipality -> Continent follows from the two FDs.
  EXPECT_TRUE(Entails(example.fds,
                      FunctionalDependency::Make(*example.schema,
                                                 example.relation,
                                                 {"Municipality"},
                                                 {"Continent"})));
}

// ---- Parser ----

TEST(Parser, ParsesPaperStyleFdDc) {
  const auto example = testing::MakeRunningExample();
  const auto dc = ParseDc(*example.schema, example.relation,
                          "!(t.Country = t'.Country & "
                          "t.Continent != t'.Continent)");
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(dc->num_vars(), 2u);
  EXPECT_EQ(dc->predicates().size(), 2u);
  // Must agree with the builder-made DC from Country -> Continent.
  EXPECT_EQ(*dc, example.dcs[2]);
}

TEST(Parser, ParsesUnaryAndConstants) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("Stock", {"High", "Low"});
  const auto unary = ParseDc(*schema, r, "!(t.High < t.Low)");
  ASSERT_TRUE(unary.has_value());
  EXPECT_EQ(unary->num_vars(), 1u);
  const auto constant = ParseDc(*schema, r, "!(t.High > 100)");
  ASSERT_TRUE(constant.has_value());
  EXPECT_TRUE(constant->predicates()[0].rhs_is_constant());
  EXPECT_EQ(constant->predicates()[0].rhs_constant(), Value(100));
}

TEST(Parser, ConstantOnLeftIsFlipped) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  const auto dc = ParseDc(*schema, r, "!(5 < t.A)");
  ASSERT_TRUE(dc.has_value());
  const Predicate& p = dc->predicates()[0];
  EXPECT_EQ(p.op(), CompareOp::kGt);
  EXPECT_EQ(p.rhs_constant(), Value(5));
}

TEST(Parser, ParsesQuotedStringsAndDoubles) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"Name", "Score"});
  const auto dc =
      ParseDc(*schema, r, "!(t.Name = 'x y' & t.Score >= 2.5)");
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(dc->predicates()[0].rhs_constant(), Value("x y"));
  EXPECT_EQ(dc->predicates()[1].rhs_constant(), Value(2.5));
}

TEST(Parser, ReportsErrors) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  std::string error;
  EXPECT_FALSE(ParseDc(*schema, r, "(t.A = 1)", &error).has_value());
  EXPECT_FALSE(ParseDc(*schema, r, "!(t.Z = 1)", &error).has_value());
  EXPECT_NE(error.find("unknown attribute"), std::string::npos);
  EXPECT_FALSE(ParseDc(*schema, r, "!(t.A = 1 &)", &error).has_value());
  EXPECT_FALSE(ParseDc(*schema, r, "!(t.A = 1) extra", &error).has_value());
  EXPECT_FALSE(ParseDc(*schema, r, "!(1 = 2)", &error).has_value());
}

TEST(Parser, DistinguishesVariablesByApostrophe) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A"});
  const auto dc = ParseDc(*schema, r, "!(t.A = t'.A & t'.A = t''.A)");
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(dc->num_vars(), 3u);
}

// ---- EGDs ----

TEST(Egd, ToDenialConstraintEncodesJoinAndConclusion) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  // R(x,y), R(y,z) => x = z.
  const BinaryAtomEgd egd(r, r, {1, 2, 2, 3}, 1, 3);
  const DenialConstraint dc = egd.ToDenialConstraint();
  EXPECT_EQ(dc.num_vars(), 2u);
  auto f = [&](int64_t a, int64_t b) {
    return Fact(r, {Value(a), Value(b)});
  };
  EXPECT_TRUE(BodyHolds(dc, f(1, 2), f(2, 3)));    // path, 1 != 3
  EXPECT_FALSE(BodyHolds(dc, f(1, 2), f(2, 1)));   // cycle: conclusion holds
  EXPECT_FALSE(BodyHolds(dc, f(1, 2), f(3, 4)));   // join fails
}

TEST(Egd, RejectsVacuousConclusion) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  EXPECT_DEATH(BinaryAtomEgd(r, r, {1, 2, 1, 2}, 1, 1), "vacuous");
}

TEST(Egd, ToStringShowsAtoms) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const BinaryAtomEgd egd(r, r, {1, 2, 2, 3}, 1, 3);
  EXPECT_EQ(egd.ToString(*schema), "R(x1,x2), R(x2,x3) => x1 = x3");
}

}  // namespace
}  // namespace dbim
