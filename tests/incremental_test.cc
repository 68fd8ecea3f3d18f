// Tests for incremental violation maintenance: the index must agree with a
// from-scratch detection after every operation, across operation kinds,
// constraint shapes, and long randomized sequences.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "test_util.h"
#include "violations/incremental.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;
using testing::MakeRunningExample;

// Full-recompute reference.
ViolationSet Reference(const IncrementalViolationIndex& index,
                       std::shared_ptr<const Schema> schema,
                       const std::vector<DenialConstraint>& dcs) {
  const ViolationDetector detector(std::move(schema), dcs);
  return detector.FindViolations(index.db());
}

void ExpectAgrees(const IncrementalViolationIndex& index,
                  std::shared_ptr<const Schema> schema,
                  const std::vector<DenialConstraint>& dcs,
                  const std::string& where) {
  const ViolationSet expected = Reference(index, std::move(schema), dcs);
  EXPECT_EQ(index.NumMinimalSubsets(), expected.num_minimal_subsets())
      << where;
  EXPECT_EQ(index.NumMinimalViolations(), expected.num_minimal_violations())
      << where;
  EXPECT_EQ(index.NumProblematicFacts(), expected.ProblematicFacts().size())
      << where;
  // Snapshot contents match as sets.
  auto a = index.Snapshot().minimal_subsets();
  auto b = expected.minimal_subsets();
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b) << where;
}

TEST(Incremental, InitialStateMatchesDetector) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d1);
  EXPECT_EQ(index.NumMinimalSubsets(), 7u);
  EXPECT_EQ(index.NumProblematicFacts(), 5u);
  EXPECT_FALSE(index.IsConsistent());
}

TEST(Incremental, DeletionRemovesItsSubsets) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d1);
  index.Apply(RepairOperation::Deletion(5));
  ExpectAgrees(index, example.schema, example.dcs, "after deleting f5");
  // f5 was in 4 of the 7 pairs.
  EXPECT_EQ(index.NumMinimalSubsets(), 3u);
}

TEST(Incremental, DeletionSequenceReachesConsistency) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d1);
  for (const FactId id : {2u, 4u, 5u}) {
    index.Apply(RepairOperation::Deletion(id));
    ExpectAgrees(index, example.schema, example.dcs,
                 "after deleting " + std::to_string(id));
  }
  EXPECT_TRUE(index.IsConsistent());
}

TEST(Incremental, UpdateRepairsAndIntroducesViolations) {
  const auto example = MakeRunningExample();
  const auto continent =
      example.schema->relation(example.relation).FindAttribute("Continent");
  const auto country =
      example.schema->relation(example.relation).FindAttribute("Country");
  IncrementalViolationIndex index(example.schema, example.dcs, example.d2);
  // Repair D2 back towards D0.
  index.Apply(RepairOperation::Update(2, *continent, Value("NAm")));
  ExpectAgrees(index, example.schema, example.dcs, "after fixing continent");
  index.Apply(RepairOperation::Update(2, *country, Value("US")));
  ExpectAgrees(index, example.schema, example.dcs, "after fixing country");
  index.Apply(RepairOperation::Update(4, *country, Value("US")));
  ExpectAgrees(index, example.schema, example.dcs, "after fixing f4");
  EXPECT_TRUE(index.IsConsistent());
  // Now dirty it again.
  index.Apply(RepairOperation::Update(3, *continent, Value("Mars")));
  ExpectAgrees(index, example.schema, example.dcs, "after new noise");
  EXPECT_FALSE(index.IsConsistent());
}

TEST(Incremental, InsertionProbesNewFact) {
  const auto example = MakeRunningExample();
  IncrementalViolationIndex index(example.schema, example.dcs, example.d0);
  EXPECT_TRUE(index.IsConsistent());
  // A fact conflicting with the Key West block on Continent.
  index.Apply(RepairOperation::Insertion(
      Fact(example.relation,
           {Value("X"), Value("t"), Value("n"), Value("Pluto"), Value("US"),
            Value("Key West")})));
  ExpectAgrees(index, example.schema, example.dcs, "after insertion");
  EXPECT_FALSE(index.IsConsistent());
}

TEST(Incremental, SelfInconsistencyTransitions) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"High", "Low"});
  const auto unary = ParseDc(*schema, r, "!(t.High < t.Low)");
  const auto fd = ParseDc(*schema, r, "!(t.High = t'.High & t.Low != t'.Low)");
  const std::vector<DenialConstraint> dcs = {*unary, *fd};
  Database db(schema);
  const FactId a = db.Insert(Fact(r, {Value(5), Value(1)}));
  db.Insert(Fact(r, {Value(5), Value(2)}));  // FD-conflicts with a
  IncrementalViolationIndex index(schema, dcs, db);
  ExpectAgrees(index, schema, dcs, "initial");

  // Make fact a self-inconsistent: its FD pair stops being minimal.
  index.Apply(RepairOperation::Update(a, 0, Value(0)));  // High=0 < Low=1
  ExpectAgrees(index, schema, dcs, "after becoming self-inconsistent");
  EXPECT_EQ(index.NumMinimalSubsets(), 1u);

  // And back: singleton goes, the FD pair returns.
  index.Apply(RepairOperation::Update(a, 0, Value(5)));
  ExpectAgrees(index, schema, dcs, "after recovering");
  EXPECT_EQ(index.NumMinimalSubsets(), 1u);  // the FD pair again
}

class IncrementalSweep : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSweep, RandomOperationSequencesAgreeWithScratch) {
  const DatasetId id =
      AllDatasets()[static_cast<size_t>(GetParam()) % AllDatasets().size()];
  const Dataset dataset = MakeDataset(id, 60, GetParam());
  IncrementalViolationIndex index(dataset.schema, dataset.constraints,
                                  dataset.data);
  const RNoiseGenerator noise(dataset.data, dataset.constraints, 0.0);
  Rng rng(GetParam() * 7 + 1);

  // Mixed workload: noise updates (applied through the index), deletions,
  // and insertions of copies of existing facts.
  for (int step = 0; step < 12; ++step) {
    const int kind = static_cast<int>(rng.UniformIndex(4));
    const std::vector<FactId> ids = index.db().ids();
    if (ids.empty()) break;
    if (kind == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else if (kind == 1) {
      index.Apply(RepairOperation::Insertion(
          index.db().fact(ids[rng.UniformIndex(ids.size())])));
    } else {
      // A noise step on a scratch copy tells us which update to apply.
      Database scratch = index.db();
      Rng probe = rng.Fork();
      noise.Step(scratch, probe);
      for (const FactId fid : scratch.ids()) {
        const Fact& before = index.db().fact(fid);
        const Fact& after = scratch.fact(fid);
        for (AttrIndex attr = 0; attr < before.arity(); ++attr) {
          if (before.value(attr) != after.value(attr)) {
            index.Apply(
                RepairOperation::Update(fid, attr, after.value(attr)));
          }
        }
      }
    }
    ExpectAgrees(index, dataset.schema, dataset.constraints,
                 std::string(DatasetName(id)) + " step " +
                     std::to_string(step));
  }
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, IncrementalSweep,
                         ::testing::Range(0, 24));

// ---- k-ary incremental maintenance (anchored re-enumeration) ----

// The 3-ary chain !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C).
DenialConstraint ChainDc3() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  return DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds));
}

// The keyless 3-ary chain !(t0.A < t1.A & t1.B < t2.B & t0.C != t2.C): no
// cross-variable equality, so its pruning index holds no groups and the
// anchored enumeration scans every variable's relation.
DenialConstraint KeylessChainDc3() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kLt, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kLt, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  return DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds));
}

// A 4-ary "at most 3 duplicates of (A)" style constraint with order tie
// breaks, to reach supports of size up to 4 and repeated-fact assignments:
// !(t0.A = t1.A & t1.A = t2.A & t2.A = t3.A & t0.B < t3.B).
DenialConstraint WideDc4() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 0}, CompareOp::kEq, Operand{2, 0});
  preds.emplace_back(Operand{2, 0}, CompareOp::kEq, Operand{3, 0});
  preds.emplace_back(Operand{0, 1}, CompareOp::kLt, Operand{3, 1});
  return DenialConstraint(std::vector<RelationId>(4, 0), std::move(preds));
}

// Drives a k-ary (optionally mixed with binary and unary) index through a
// random operation sequence, re-checking bit-agreement with fresh
// detection after every op — the enforcement arm of the anchored
// re-enumeration path (insert/update probe through the changed fact,
// minimality filtering against the live store, per-assignment violation
// multiplicities).
void RunKArySweep(const std::vector<DenialConstraint>& dcs, size_t num_facts,
                  int64_t domain, uint64_t seed, const std::string& where) {
  const auto schema = MakeAbcSchema();
  const Database start = MakeRandomDatabase(schema, 0, num_facts, domain,
                                            seed);
  IncrementalViolationIndex index(schema, dcs, start);
  ExpectAgrees(index, schema, dcs, where + " initial");
  Rng rng(seed * 13 + 5);
  for (int step = 0; step < 14; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    const size_t kind = ids.empty() ? 1 : rng.UniformIndex(4);
    if (kind == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else if (kind == 1) {
      std::vector<Value> values;
      for (int a = 0; a < 3; ++a) {
        values.emplace_back(
            static_cast<int64_t>(rng.UniformInt(0, domain - 1)));
      }
      index.Apply(RepairOperation::Insertion(Fact(0, std::move(values))));
    } else if (kind == 2) {  // duplicate: repeated-fact assignments
      index.Apply(RepairOperation::Insertion(
          index.db().fact(ids[rng.UniformIndex(ids.size())])));
    } else {
      index.Apply(RepairOperation::Update(
          ids[rng.UniformIndex(ids.size())],
          static_cast<AttrIndex>(rng.UniformIndex(3)),
          Value(static_cast<int64_t>(rng.UniformInt(0, domain - 1)))));
    }
    ExpectAgrees(index, schema, dcs, where + " step " + std::to_string(step));
  }
}

class KAryIncrementalSweep : public ::testing::TestWithParam<int> {};

TEST_P(KAryIncrementalSweep, PureChainDc) {
  RunKArySweep({ChainDc3()}, 24, 3, GetParam() * 3 + 1,
               "chain seed=" + std::to_string(GetParam()));
}

TEST_P(KAryIncrementalSweep, KeylessChainDc) {
  RunKArySweep({KeylessChainDc3()}, 20, 3, GetParam() * 5 + 4,
               "keyless seed=" + std::to_string(GetParam()));
}

TEST_P(KAryIncrementalSweep, MixedBinaryAndKAry) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(ChainDc3());
  RunKArySweep(dcs, 20, 3, GetParam() * 7 + 2,
               "mixed seed=" + std::to_string(GetParam()));
}

TEST_P(KAryIncrementalSweep, MixedUnaryAndWide4Ary) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));  // self-inconsistency
  dcs.push_back(WideDc4());
  RunKArySweep(dcs, 14, 3, GetParam() * 11 + 3,
               "wide seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, KAryIncrementalSweep, ::testing::Range(0, 6));

// Self-inconsistency transitions through a k-ary constraint: the
// singleton's multiplicity counts the pass-1 Add plus the all-variables-
// on-one-fact k-ary derivation, and suppressed larger witnesses come back
// when the fact recovers.
TEST(KAryIncremental, SelfInconsistencyTransitions) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  dcs.push_back(ChainDc3());
  Database db(schema);
  const FactId a = db.Insert(Fact(0, {Value(5), Value(1), Value(0)}));
  db.Insert(Fact(0, {Value(5), Value(1), Value(2)}));
  db.Insert(Fact(0, {Value(7), Value(1), Value(3)}));
  IncrementalViolationIndex index(schema, dcs, db);
  ExpectAgrees(index, schema, dcs, "initial");

  // a becomes self-inconsistent (A=0 < B=1): its chain witnesses drop.
  index.Apply(RepairOperation::Update(a, 0, Value(0)));
  ExpectAgrees(index, schema, dcs, "self-inconsistent");
  // And back.
  index.Apply(RepairOperation::Update(a, 0, Value(5)));
  ExpectAgrees(index, schema, dcs, "recovered");
}

// ---- slot compaction ----

// Sustained churn leaves dead slots behind (removal only marks);
// CompactSlots reclaims them without changing any observable state, and
// the threshold form bounds stored slots across a long trajectory.
TEST(SlotCompaction, ChurnStaysBoundedUnderPeriodicCompaction) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  const Database start = MakeRandomDatabase(schema, 0, 30, 3, 77);
  IncrementalViolationIndex index(schema, dcs, start);
  Rng rng(78);

  size_t max_stored_with_compaction = 0;
  for (int step = 0; step < 300; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    if (!ids.empty() && rng.UniformIndex(2) == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else {
      index.Apply(RepairOperation::Insertion(Fact(
          0, {Value(static_cast<int64_t>(rng.UniformInt(0, 2))),
              Value(static_cast<int64_t>(rng.UniformInt(0, 2))),
              Value(static_cast<int64_t>(rng.UniformInt(0, 2)))})));
    }
    // Compact whenever more than half the slots are dead — the session
    // vacuum's policy.
    index.CompactSlotsIfWasteful(0.5);
    max_stored_with_compaction =
        std::max(max_stored_with_compaction, index.NumStoredSlots());
    ASSERT_LE(index.NumStoredSlots(),
              2 * std::max<size_t>(index.NumMinimalSubsets(), 1) + 2)
        << "step " << step;
  }
  EXPECT_GT(max_stored_with_compaction, 0u);
  ExpectAgrees(index, schema, dcs, "after churn");

  // Full compaction drops every dead slot and is observably a no-op.
  index.CompactSlots();
  EXPECT_EQ(index.NumStoredSlots(), index.NumMinimalSubsets());
  ExpectAgrees(index, schema, dcs, "after full compaction");

  // And the index keeps maintaining correctly on the compacted layout.
  for (int step = 0; step < 20; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    if (ids.empty()) break;
    index.Apply(
        RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    ExpectAgrees(index, schema, dcs,
                 "post-compaction step " + std::to_string(step));
  }
}

}  // namespace
}  // namespace dbim
