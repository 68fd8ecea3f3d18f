// Tests for incremental violation maintenance: the index must agree with a
// from-scratch detection after every operation, across operation kinds,
// constraint shapes, and long randomized sequences.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/session.h"
#include "test_util.h"
#include "violations/incremental.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;
using testing::MakeRsSchema;
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
  EXPECT_EQ(testing::SortedSubsets(index.Snapshot()),
            testing::SortedSubsets(expected))
      << where;
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

// Each subset with its derivation count, sorted: a ViolationSet up to
// order.
std::vector<std::pair<std::vector<FactId>, uint32_t>> WithMultiplicities(
    const ViolationSet& v) {
  std::vector<std::pair<std::vector<FactId>, uint32_t>> out;
  for (size_t i = 0; i < v.num_minimal_subsets(); ++i) {
    const FactSpan subset = v.subset(i);
    out.emplace_back(std::vector<FactId>(subset.begin(), subset.end()),
                     v.multiplicities()[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The build the session's Register runs: one witness index build, probed
// by the initial detection and then maintained by Apply. At 1 and 2 build
// threads, on every dataset generator (dirtied by RNoise), the built index
// passes CheckWatcherInvariant and its snapshot equals a fresh detection
// subset by subset and multiplicity by multiplicity; it then tracks the
// brute-force oracle and fresh detection through 200 random ops on at
// most 12 facts.
TEST(Incremental, RegisterBuildMatchesDetectionAndSurvivesOps) {
  constexpr size_t kMaxFacts = 12;
  size_t initial_subsets = 0;
  size_t inconsistent_steps = 0;
  for (const DatasetId id : AllDatasets()) {
    for (const size_t threads : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE(std::string(DatasetName(id)) +
                   " threads=" + std::to_string(threads));
      const Dataset dataset = MakeDataset(id, kMaxFacts, 5);
      const std::vector<DenialConstraint>& dcs = dataset.constraints;
      Database dirty = dataset.data;
      const RNoiseGenerator noise(dirty, dcs, 0.0);
      Rng rng(static_cast<uint64_t>(id) * 11 + threads);
      for (int step = 0; step < 8; ++step) noise.Step(dirty, rng);
      DetectorOptions options;
      options.num_threads = threads;
      IncrementalViolationIndex index(dataset.schema, dcs, dirty, options);
      const ViolationDetector detector(dataset.schema, dcs);
      std::string error;
      ASSERT_TRUE(index.CheckWatcherInvariant(&error)) << error;
      EXPECT_EQ(WithMultiplicities(index.Snapshot()),
                WithMultiplicities(detector.FindViolations(index.db())));
      initial_subsets += index.NumMinimalSubsets();

      // Inserts copy a fact of the dirtied start; updates copy another
      // live fact's cell, so keys collide and constraints fire.
      std::vector<Fact> donors;
      for (const FactId fid : dirty.ids()) donors.push_back(dirty.fact(fid));
      for (int op = 0; op < 200; ++op) {
        const std::vector<FactId> ids = index.db().ids();
        size_t kind = rng.UniformIndex(3);
        if (ids.empty()) kind = 1;
        if (kind == 1 && ids.size() >= kMaxFacts) kind = 0;
        if (kind == 0) {
          index.Apply(
              RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
        } else if (kind == 1) {
          index.Apply(RepairOperation::Insertion(
              donors[rng.UniformIndex(donors.size())]));
        } else {
          const FactId target = ids[rng.UniformIndex(ids.size())];
          const Fact donor =
              index.db().fact(ids[rng.UniformIndex(ids.size())]);
          const AttrIndex attr =
              static_cast<AttrIndex>(rng.UniformIndex(donor.arity()));
          index.Apply(
              RepairOperation::Update(target, attr, donor.value(attr)));
        }
        SCOPED_TRACE("op " + std::to_string(op));
        ASSERT_TRUE(index.CheckWatcherInvariant(&error)) << error;
        const ViolationSet maintained = index.Snapshot();
        testing::ExpectMatchesOracle(dcs, index.db(), maintained);
        ASSERT_EQ(WithMultiplicities(maintained),
                  WithMultiplicities(detector.FindViolations(index.db())));
        inconsistent_steps += !index.IsConsistent();
      }
    }
  }
  // The instances exercise what the test is about.
  EXPECT_GT(initial_subsets, 0u);
  EXPECT_GT(inconsistent_steps, 1000u);
}

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
// cross-variable equality, so its plan has no pair groups and the
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

// ---- k-ary pair groups shared with binary constraints ----
//
// The chain's (R, [A]) pair group is the FD's bucket group: one witness
// index serves both, and Apply enters the changed fact only after its
// probe, so the anchored walk itself tries the anchor's row wherever a
// later position may rebind it. Every chain witness through a changed
// fact binds it, or its partner, at two variables. After every insert,
// update and delete, and after the rebuild a vacuum forces, the index
// holds the watcher invariant, matches fresh detection and the brute-force
// oracle, and each k-ary constraint's watcher count equals a recount of
// the distinct keys its variable pairs block on.
size_t RecountKAryWatchers(const DenialConstraint& dc, const Database& db) {
  std::set<std::pair<RelationId, std::vector<AttrIndex>>> groups;
  for (uint32_t v = 0; v < dc.num_vars(); ++v) {
    for (uint32_t u = 0; u < dc.num_vars(); ++u) {
      if (u == v) continue;
      const PairBlockingKeys keys = ExtractPairBlockingKeys(dc, u, v);
      if (!keys.empty()) groups.emplace(dc.var_relation(v), keys.v_attrs);
    }
  }
  size_t watchers = 0;
  for (const auto& [relation, attrs] : groups) {
    std::set<std::vector<ValueId>> keys;
    db.ForEachId([&](FactId id) {
      if (db.Locate(id).relation != relation) return;
      const RowRef row = BindFact(db, id);
      std::vector<ValueId> key;
      for (const AttrIndex a : attrs) key.push_back(row.class_at(a));
      keys.insert(std::move(key));
    });
    watchers += keys.size();
  }
  return watchers;
}

void RunSharedGroupSweep(const std::vector<DenialConstraint>& dcs,
                         uint64_t seed, const std::string& where) {
  const auto schema = MakeAbcSchema();
  IncrementalViolationIndex index(
      schema, dcs, MakeRandomDatabase(schema, 0, 10, 3, seed));
  Rng rng(seed * 17 + 3);
  size_t kary_fires = 0;
  for (int step = 0; step <= 40; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    const Fact donor = index.db().fact(ids[rng.UniformIndex(ids.size())]);
    const AttrIndex attr = static_cast<AttrIndex>(rng.UniformIndex(3));
    const size_t kind = rng.UniformIndex(8);
    if (step == 0) {
      // No op: the registered state.
    } else if (kind == 0 && ids.size() > 6) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else if (kind < 4 && ids.size() < 16) {
      // A live fact with one cell redrawn: it shares the donor's other
      // keys.
      std::vector<Value> values = donor.values();
      values[attr] = Value(rng.UniformInt(0, 2));
      index.Apply(RepairOperation::Insertion(Fact(0, std::move(values))));
    } else {
      // Another live fact's cell: the target joins that fact's bucket.
      index.Apply(RepairOperation::Update(ids[rng.UniformIndex(ids.size())],
                                          attr, donor.value(attr)));
    }
    if (step == 20) {
      // The next Apply finds the witness index stale and rebuilds it.
      index.mutable_db().ReinternInto(std::make_shared<ValuePool>());
    }
    const std::string at = where + " step " + std::to_string(step);
    SCOPED_TRACE(at);
    std::string error;
    ASSERT_TRUE(index.CheckWatcherInvariant(&error)) << error;
    ExpectAgrees(index, schema, dcs, at);
    testing::ExpectMatchesOracle(dcs, index.db(), index.Snapshot());
    for (size_t c = 0; c < dcs.size(); ++c) {
      if (dcs[c].num_vars() < 3) continue;
      EXPECT_EQ(index.ConstraintStatsFor(c).watcher_count,
                RecountKAryWatchers(dcs[c], index.db()));
      kary_fires = index.ConstraintStatsFor(c).num_fires;
    }
  }
  EXPECT_GT(kary_fires, 0u);  // the anchored walk found witnesses
}

TEST(KAryIncremental, PairGroupsSharedWithFd) {
  const auto schema = MakeAbcSchema();
  for (const char* fd : {"!(t.A = t'.A & t.B != t'.B)",
                         "!(t.A = t'.A & t.C != t'.C)"}) {
    const std::vector<DenialConstraint> dcs = {*ParseDc(*schema, 0, fd),
                                               ChainDc3()};
    for (const uint64_t seed : {1u, 2u, 3u}) {
      RunSharedGroupSweep(dcs, seed,
                          std::string(fd) + " seed=" + std::to_string(seed));
    }
  }
}

// A snapshot copies exactly the live slots, in slot order, each with its
// derivations: after RemoveInvolving kills slots in place, after Compact
// drops them, and after admissions past a compaction.
TEST(WitnessStore, SnapshotHoldsLiveSlotsInSlotOrder) {
  WitnessStore store;
  store.Admit({5, 8});
  store.Admit({2}, 2);
  store.Admit({3, 8});
  store.Admit({1, 4}, 3);
  store.Admit({5, 8});  // a second derivation of slot 0
  store.AdmitKAry({{1, 6, 9}, {1, 6, 9}, {4, 6, 9}});
  auto expect = [](const ViolationSet& set,
                   std::vector<std::vector<FactId>> subsets,
                   std::vector<uint32_t> multiplicities) {
    EXPECT_EQ(testing::Subsets(set), subsets);
    EXPECT_EQ(set.multiplicities(), multiplicities);
    size_t violations = 0;
    for (const uint32_t m : multiplicities) violations += m;
    EXPECT_EQ(set.num_minimal_violations(), violations);
  };
  expect(store.Snapshot(), {{5, 8}, {2}, {3, 8}, {1, 4}, {1, 6, 9},
                            {4, 6, 9}},
         {2, 2, 1, 3, 2, 1});

  store.RemoveInvolving(8);
  store.RemoveInvolving(6);
  EXPECT_EQ(store.num_slots(), 6u);
  EXPECT_EQ(store.num_live(), 2u);
  expect(store.Snapshot(), {{2}, {1, 4}}, {2, 3});

  store.Compact();
  EXPECT_EQ(store.num_slots(), 2u);
  expect(store.Snapshot(), {{2}, {1, 4}}, {2, 3});

  store.Admit({3, 7});
  store.Admit({1, 4});
  store.RemoveInvolving(2);
  expect(store.Snapshot(), {{1, 4}, {3, 7}}, {4, 1});
  store.RemoveInvolving(1);
  store.RemoveInvolving(3);
  EXPECT_TRUE(store.Snapshot().empty());
  EXPECT_EQ(store.Snapshot().num_minimal_violations(), 0u);
}

// A subset's identity is its fact set, not its 64-bit key:
// {899, 947, 948} and {898, 947, 208029} share an FNV-1a key, and both are
// minimal here, so each takes its own slot with its one derivation — in
// fresh detection, in the store Register adopts, and when Apply completes
// the second triple.
TEST(WitnessStore, CollidingSubsetKeysStayDistinct) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"P", "K"});
  // Fact t of a triple has P = 1, t' has P = 2 and t'' has P = 3, and t
  // shares t'''s K. Fact 208029 starts outside its triple.
  const std::vector<DenialConstraint> dcs = {*ParseDc(
      *schema, r, "!(t.P = 1 & t'.P = 2 & t''.P = 3 & t.K = t''.K)")};
  Database db(schema);
  for (FactId id = 0; id <= 208029; ++id) {
    int64_t p = 0;
    int64_t k = 0;
    if (id == 899 || id == 948) k = 1;
    if (id == 898 || id == 208029) k = 2;
    if (id == 898 || id == 899) p = 1;
    if (id == 947) p = 2;
    if (id == 948) p = 3;
    ASSERT_EQ(db.Insert(Fact(r, {Value(p), Value(k)})), id);
  }
  IncrementalViolationIndex index(schema, dcs, db);
  EXPECT_EQ(index.NumMinimalSubsets(), 1u);

  index.Apply(RepairOperation::Update(208029, 0, Value(3)));
  const std::vector<std::vector<FactId>> triples = {{899, 947, 948},
                                                    {898, 947, 208029}};
  const ViolationSet maintained = index.Snapshot();
  EXPECT_EQ(testing::Subsets(maintained), triples);
  EXPECT_EQ(maintained.multiplicities(), (std::vector<uint32_t>{1, 1}));

  const ViolationSet fresh = ViolationDetector(schema, dcs).FindViolations(
      index.db());
  EXPECT_EQ(testing::Subsets(fresh),
            (std::vector<std::vector<FactId>>{triples[1], triples[0]}));
  EXPECT_EQ(fresh.num_minimal_violations(), 2u);

  IncrementalViolationIndex registered(schema, dcs, index.db());
  EXPECT_EQ(registered.NumMinimalSubsets(), 2u);
  EXPECT_EQ(registered.NumMinimalViolations(), 2u);
  EXPECT_EQ(registered.NumProblematicFacts(), 5u);
}

// ---- store differential fuzz ----
//
// Random Admit (singletons, pairs, repeated derivations), AdmitKAry,
// RemoveInvolving, Compact and CompactIfWasteful sequences, replayed on a
// naive model: a vector of (fact set, derivations, alive) slots scanned
// linearly. After every step the store must match it in Snapshot() (order
// and multiplicities), the live, slot and violation counts, NumMembers and
// IsSelfInconsistent for every id. The ids include the colliding triples
// {899, 947, 948} and {898, 947, 208029}, and a small live set keeps the
// slot table at a few entries, so its probe runs often wrap around.
class NaiveStore {
 public:
  void Admit(const std::vector<FactId>& set, uint32_t derivations) {
    violations_ += derivations;
    for (Slot& slot : slots_) {
      if (slot.alive && slot.set == set) {
        slot.derivations += derivations;
        return;
      }
    }
    slots_.push_back(Slot{set, derivations, true});
  }

  void AdmitKAry(std::vector<std::vector<FactId>> supports) {
    std::sort(supports.begin(), supports.end(),
              [](const auto& a, const auto& b) {
                if (a.size() != b.size()) return a.size() < b.size();
                return a < b;
              });
    for (size_t i = 0; i < supports.size();) {
      size_t end = i + 1;
      while (end < supports.size() && supports[end] == supports[i]) ++end;
      if (IsMinimal(supports[i])) {
        Admit(supports[i], static_cast<uint32_t>(end - i));
      }
      i = end;
    }
  }

  void RemoveInvolving(FactId id) {
    for (Slot& slot : slots_) {
      if (slot.alive && Holds(slot.set, id)) {
        slot.alive = false;
        violations_ -= slot.derivations;
      }
    }
  }

  void Compact() {
    std::vector<Slot> live;
    for (const Slot& slot : slots_) {
      if (slot.alive) live.push_back(slot);
    }
    slots_ = std::move(live);
  }

  bool CompactIfWasteful(double waste_threshold) {
    const size_t live = num_live();
    if (slots_.empty() || live == slots_.size()) return false;
    if (1.0 - static_cast<double>(live) / slots_.size() <= waste_threshold) {
      return false;
    }
    Compact();
    return true;
  }

  bool IsSelfInconsistent(FactId id) const {
    for (const Slot& slot : slots_) {
      if (slot.alive && slot.set == std::vector<FactId>{id}) return true;
    }
    return false;
  }

  size_t num_live() const {
    size_t live = 0;
    for (const Slot& slot : slots_) live += slot.alive;
    return live;
  }
  size_t num_slots() const { return slots_.size(); }
  size_t num_minimal_violations() const { return violations_; }

  size_t NumMembers() const {
    std::set<FactId> members;
    for (const Slot& slot : slots_) {
      if (slot.alive) members.insert(slot.set.begin(), slot.set.end());
    }
    return members.size();
  }

  std::vector<std::vector<FactId>> LiveSets() const {
    std::vector<std::vector<FactId>> out;
    for (const Slot& slot : slots_) {
      if (slot.alive) out.push_back(slot.set);
    }
    return out;
  }
  std::vector<uint32_t> LiveDerivations() const {
    std::vector<uint32_t> out;
    for (const Slot& slot : slots_) {
      if (slot.alive) out.push_back(slot.derivations);
    }
    return out;
  }

 private:
  struct Slot {
    std::vector<FactId> set;
    uint32_t derivations;
    bool alive;
  };

  static bool Holds(const std::vector<FactId>& set, FactId id) {
    return std::find(set.begin(), set.end(), id) != set.end();
  }
  bool IsMinimal(const std::vector<FactId>& candidate) const {
    for (const FactId id : candidate) {
      if (IsSelfInconsistent(id)) return candidate.size() == 1;
    }
    for (const Slot& slot : slots_) {
      if (slot.alive && slot.set.size() < candidate.size() &&
          std::includes(candidate.begin(), candidate.end(),
                        slot.set.begin(), slot.set.end())) {
        return false;
      }
    }
    return true;
  }

  std::vector<Slot> slots_;
  size_t violations_ = 0;
};

TEST(WitnessStoreFuzz, MatchesNaiveModel) {
  std::vector<FactId> ids;
  for (FactId id = 0; id < 14; ++id) ids.push_back(id);
  const std::vector<FactId> colliding = {898, 899, 947, 948, 208029};
  ids.insert(ids.end(), colliding.begin(), colliding.end());
  const std::vector<std::vector<FactId>> triples = {{899, 947, 948},
                                                    {898, 947, 208029}};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    WitnessStore store;
    NaiveStore model;
    // A set of `size` distinct ids, sorted.
    auto draw = [&](size_t size) {
      std::vector<FactId> set;
      while (set.size() < size) {
        const FactId id = ids[rng.UniformIndex(ids.size())];
        if (std::find(set.begin(), set.end(), id) == set.end()) {
          set.push_back(id);
        }
      }
      std::sort(set.begin(), set.end());
      return set;
    };
    for (int step = 0; step < 300; ++step) {
      const std::string where =
          "seed " + std::to_string(seed) + " step " + std::to_string(step);
      const size_t kind = rng.UniformIndex(20);
      if (kind < 9) {
        const std::vector<FactId> set = draw(rng.Bernoulli(0.1) ? 1 : 2);
        const uint32_t derivations =
            static_cast<uint32_t>(rng.UniformInt(1, 3));
        if (set.size() == 1) {
          store.Admit({set[0]}, derivations);
        } else {
          store.Admit({set[0], set[1]}, derivations);
        }
        model.Admit(set, derivations);
      } else if (kind < 12) {
        std::vector<std::vector<FactId>> supports;
        const size_t n = rng.UniformIndex(5);
        for (size_t i = 0; i < n; ++i) {
          if (rng.Bernoulli(0.3)) {
            supports.push_back(triples[rng.UniformIndex(2)]);
          } else {
            supports.push_back(draw(static_cast<size_t>(rng.UniformInt(1, 4))));
          }
          // A repeated support is one more derivation of its candidate.
          if (rng.Bernoulli(0.3)) supports.push_back(supports.back());
        }
        store.AdmitKAry(supports);
        model.AdmitKAry(supports);
      } else if (kind < 18) {
        const FactId id = ids[rng.UniformIndex(ids.size())];
        store.RemoveInvolving(id);
        model.RemoveInvolving(id);
      } else if (kind < 19) {
        store.Compact();
        model.Compact();
      } else {
        const double threshold = rng.UniformDouble();
        ASSERT_EQ(store.CompactIfWasteful(threshold),
                  model.CompactIfWasteful(threshold))
            << where;
      }

      const ViolationSet snapshot = store.Snapshot();
      ASSERT_EQ(testing::Subsets(snapshot), model.LiveSets()) << where;
      ASSERT_EQ(snapshot.multiplicities(), model.LiveDerivations()) << where;
      ASSERT_EQ(snapshot.num_minimal_violations(),
                model.num_minimal_violations())
          << where;
      ASSERT_EQ(store.num_live(), model.num_live()) << where;
      ASSERT_EQ(store.num_slots(), model.num_slots()) << where;
      ASSERT_EQ(store.num_minimal_violations(),
                model.num_minimal_violations())
          << where;
      ASSERT_EQ(store.NumMembers(), model.NumMembers()) << where;
      for (const FactId id : ids) {
        ASSERT_EQ(store.IsSelfInconsistent(id), model.IsSelfInconsistent(id))
            << where << " id " << id;
      }
      ASSERT_FALSE(store.IsSelfInconsistent(208030)) << where;
    }
  }
}

// ---- differential fuzz of the binary probe shapes ----
//
// Every binary shape the partner indexes distinguish — `!=` class splits
// (symmetric, asymmetric, cross-relation, on a two-attribute key), order
// runs with one and two keys (keyed and keyless, strict and non-strict,
// tie-heavy), and a mixed null/int/double/string order column with NaNs
// and integers past 2^53 — plus a k-ary chain over its pair groups,
// driven by random insert/delete/update trajectories over R(A,B,C,D) and
// S(A,B,C,D). A standalone index and a MeasureSession replay the same
// ops; halfway through, the session vacuums (Vacuum(0.0)) and the index's
// database is re-interned into a fresh pool the same way, so the next
// Apply rebuilds every index from the database. After every op
// the index must hold the watcher invariant, agree with fresh detection
// (subsets, violation count, problematic facts), equal the session's
// view, and, on at most 12 facts, the brute-force oracle.

// Cell draws: small ints, or with `mixed` every kind an order column can
// hold — null, ints, whole and half doubles (2 and 2.0 share a class),
// one-letter strings, NaN, and integers of magnitude 2^53 to 2^53 + 2,
// which tie in pairs under a double comparison. No double equals one of
// those integers: Value equality between them is not transitive (2^53 + 1
// equals the double 2^53, which equals 2^53), so the pool's classes, and
// with them every detection result, would depend on interning order.
Value DrawCell(Rng& rng, int64_t domain, bool mixed) {
  const int64_t x = rng.UniformInt(0, domain - 1);
  if (!mixed) return Value(x);
  switch (rng.UniformIndex(12)) {
    case 0:
      return Value();
    case 1:
    case 2:
    case 3:
      return Value(x);
    case 4:
    case 5:
      return Value(static_cast<double>(x));
    case 6:
      return Value(static_cast<double>(x) + 0.5);
    case 7:
    case 8:
      return Value(std::string(1, static_cast<char>('a' + x % 3)));
    case 9:
      return Value(std::nan(""));
    case 10:
      return Value((int64_t{1} << 53) + x % 3);
    default:
      return Value(-(int64_t{1} << 53) - x % 3);
  }
}

// The oracle evaluates `!=` on a NaN cell the IEEE way (NaN != NaN), the
// kernel by class id (a NaN cell equals itself), so a NaN makes a fact
// self-inconsistent under an FD for the oracle only. Instances holding a
// NaN are compared against fresh detection, which shares the kernel's
// semantics, and not against the oracle.
bool HasNan(const Database& db) {
  bool nan = false;
  db.ForEachId([&](FactId id) {
    const Fact fact = db.fact(id);
    for (const Value& v : fact.values()) {
      if (v.kind() == Value::Kind::kDouble && std::isnan(v.as_double())) {
        nan = true;
      }
    }
  });
  return nan;
}

void RunShapeFuzz(const std::vector<DenialConstraint>& dcs, bool mixed,
                  size_t facts_per_relation, uint64_t seed, int steps,
                  const std::string& where) {
  const auto schema = MakeRsSchema();
  constexpr int64_t kDomain = 4;
  Rng rng(seed);
  auto cells = [&] {
    std::vector<Value> values;
    for (int a = 0; a < 4; ++a) values.push_back(DrawCell(rng, kDomain, mixed));
    return values;
  };
  Database start(schema);
  for (RelationId r = 0; r < schema->num_relations(); ++r) {
    for (size_t i = 0; i < facts_per_relation; ++i) {
      start.Insert(Fact(r, cells()));
    }
  }
  IncrementalViolationIndex index(schema, dcs, start);
  MeasureSession session(schema, dcs);
  const DbHandle handle = session.Register(start);
  // A value minted per op, so every update leaves dead pool entries behind
  // for the vacuum to drop.
  int64_t fresh = 1000;

  for (int step = 0; step <= steps; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    RepairOperation op = RepairOperation::Deletion(0);
    const size_t kind = ids.size() < 3 ? 1 : rng.UniformIndex(3);
    if (kind == 0) {
      op = RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]);
    } else if (kind == 1) {
      const RelationId r = static_cast<RelationId>(rng.UniformIndex(2));
      op = RepairOperation::Insertion(Fact(r, cells()));
    } else {
      Value v = rng.UniformIndex(5) == 0 ? Value(fresh++)
                                         : DrawCell(rng, kDomain, mixed);
      op = RepairOperation::Update(ids[rng.UniformIndex(ids.size())],
                                   static_cast<AttrIndex>(rng.UniformIndex(4)),
                                   std::move(v));
    }
    if (step > 0) {
      EXPECT_EQ(index.Apply(op), session.Apply(handle, op));
    }
    if (step == steps / 2) {
      // A cell set to a fresh value twice leaves the first one dead, so
      // the vacuum has something to drop.
      for (int twice = 0; twice < 2; ++twice) {
        const RepairOperation mint = RepairOperation::Update(
            index.db().ids().front(), 3, Value(fresh++));
        index.Apply(mint);
        session.Apply(handle, mint);
      }
      ASSERT_TRUE(session.Vacuum(0.0));
      index.mutable_db().ReinternInto(std::make_shared<ValuePool>());
    }
    const std::string at = where + " step " + std::to_string(step);
    SCOPED_TRACE(at);
    std::string error;
    ASSERT_TRUE(index.CheckWatcherInvariant(&error)) << error;
    ExpectAgrees(index, schema, dcs, at);
    const ViolationSet maintained = index.Snapshot();
    EXPECT_EQ(testing::SortedSubsets(maintained),
              testing::SortedSubsets(session.Violations(handle)));
    if (index.db().ids().size() <= 12 && !HasNan(index.db())) {
      testing::ExpectMatchesOracle(dcs, index.db(), maintained);
    }
  }
  EXPECT_EQ(session.num_vacuums(), 1u);
}

// Shapes over MakeRsSchema: attributes A=0, B=1, C=2, D=3.
std::vector<DenialConstraint> FuzzShape(const std::string& name) {
  const auto schema = MakeRsSchema();
  auto parse = [&](const char* text) { return *ParseDc(*schema, 0, text); };
  if (name == "symmetric_fd") return {parse("!(t.A = t'.A & t.B != t'.B)")};
  if (name == "asymmetric_ne") return {parse("!(t.A = t'.A & t.B != t'.C)")};
  if (name == "cross_relation_fd") {
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
    return {DenialConstraint(std::vector<RelationId>{0, 1}, std::move(preds))};
  }
  if (name == "two_attr_key") {
    return {parse("!(t.A = t'.A & t.B = t'.B & t.C != t'.C)")};
  }
  if (name == "kary_chain") {
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
    preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
    return {DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds))};
  }
  if (name == "one_order_key") return {parse("!(t.A = t'.A & t.B < t'.C)")};
  if (name == "two_order_keys") {
    return {parse("!(t.A = t'.A & t.B > t'.B & t.C < t'.C)")};
  }
  if (name == "non_strict_ties") {
    return {parse("!(t.A = t'.A & t.B <= t'.B & t.C >= t'.D)"),
            parse("!(t.A = t'.A & t.D >= t'.C)")};
  }
  if (name == "keyless_order") return {parse("!(t.B < t'.B & t.C > t'.C)")};
  if (name == "cross_relation_order") {
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{1, 2}, CompareOp::kLe, Operand{0, 1});
    preds.emplace_back(Operand{0, 3}, CompareOp::kGt, Operand{1, 3});
    return {DenialConstraint(std::vector<RelationId>{0, 1}, std::move(preds))};
  }
  // Every shape at once, sharing buckets and partner indexes.
  std::vector<DenialConstraint> all;
  for (const char* shape :
       {"symmetric_fd", "asymmetric_ne", "cross_relation_fd", "one_order_key",
        "two_order_keys", "non_strict_ties", "keyless_order",
        "cross_relation_order"}) {
    for (DenialConstraint& dc : FuzzShape(shape)) all.push_back(std::move(dc));
  }
  return all;
}

class BinaryShapeFuzz
    : public ::testing::TestWithParam<std::tuple<std::string, bool, int>> {};

TEST_P(BinaryShapeFuzz, MatchesDetectionAndOracle) {
  const auto& [shape, mixed, seed] = GetParam();
  const std::vector<DenialConstraint> dcs = FuzzShape(shape);
  const std::string where = shape + (mixed ? " mixed" : " ints") +
                            " seed=" + std::to_string(seed);
  // Small: the oracle checks every step. Larger: bucket populations reach
  // several order runs and their tombstone rebuilds.
  RunShapeFuzz(dcs, mixed, 5, static_cast<uint64_t>(seed) * 31 + 7, 24,
               where + " small");
  RunShapeFuzz(dcs, mixed, 30, static_cast<uint64_t>(seed) * 37 + 11, 80,
               where + " large");
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BinaryShapeFuzz,
    ::testing::Combine(
        ::testing::Values("symmetric_fd", "asymmetric_ne", "cross_relation_fd",
                          "two_attr_key", "kary_chain", "one_order_key",
                          "two_order_keys", "non_strict_ties",
                          "keyless_order", "cross_relation_order", "all"),
        ::testing::Bool(), ::testing::Range(0, 3)),
    [](const auto& info) {
      return std::get<0>(info.param) +
             (std::get<1>(info.param) ? "_mixed_" : "_ints_") +
             std::to_string(std::get<2>(info.param));
    });

// With no unary constraint in Sigma, a constraint whose body is exactly
// its key plus its indexed predicates — an FD (`!=` split), Tax's
// salary/rate DC (two order keys) and a keyless order DC — is probed at
// exactly its output: every partner the index yields is a witness. Keys
// are drawn dense (buckets of about ten facts) and sparse (mostly one
// fact per bucket) over a small value domain.
TEST(OutputSensitivity, ProbesEqualFiresWhenTheIndexCoversTheBody) {
  const auto schema = MakeRsSchema();
  const std::vector<DenialConstraint> dcs = {
      *ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"),
      *ParseDc(*schema, 0, "!(t.A = t'.A & t.B > t'.B & t.C < t'.C)"),
      *ParseDc(*schema, 0, "!(t.D <= t'.D & t.C > t'.C)"),
  };
  for (const int64_t key_domain : {6, 60}) {
    SCOPED_TRACE("key domain " + std::to_string(key_domain));
    Rng rng(404 + key_domain);
    auto cells = [&] {
      std::vector<Value> values = {Value(rng.UniformInt(0, key_domain - 1))};
      for (int a = 1; a < 4; ++a) values.emplace_back(rng.UniformInt(0, 3));
      return Fact(0, std::move(values));
    };
    Database start(schema);
    for (int i = 0; i < 60; ++i) start.Insert(cells());
    IncrementalViolationIndex index(schema, dcs, start);
    for (int step = 0; step < 200; ++step) {
      const std::vector<FactId> ids = index.db().ids();
      if (rng.UniformIndex(4) == 0) {
        index.Apply(
            RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
      } else if (rng.UniformIndex(3) == 0) {
        index.Apply(RepairOperation::Insertion(cells()));
      } else {
        const AttrIndex attr = static_cast<AttrIndex>(rng.UniformIndex(4));
        index.Apply(RepairOperation::Update(
            ids[rng.UniformIndex(ids.size())], attr,
            Value(rng.UniformInt(0, attr == 0 ? key_domain - 1 : 3))));
      }
    }
    ExpectAgrees(index, schema, dcs, "after trajectory");
    for (size_t c = 0; c < dcs.size(); ++c) {
      const IncrementalConstraintStats stats = index.ConstraintStatsFor(c);
      EXPECT_GT(stats.num_fires, 0u) << "dc " << c;
      EXPECT_EQ(stats.num_probes, stats.num_fires) << "dc " << c;
    }
  }
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

// With no caller compaction at all, Apply keeps the dead slots from
// outnumbering the live ones, over binary and k-ary churn alike, and the
// compacted store keeps agreeing with fresh detection.
TEST(SlotCompaction, ApplyBoundsSlotsWithoutCallerCompaction) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(ChainDc3());
  const Database start = MakeRandomDatabase(schema, 0, 30, 3, 79);
  IncrementalViolationIndex index(schema, dcs, start);
  Rng rng(80);
  size_t max_stored = 0;
  for (int step = 0; step < 400; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    const size_t kind = rng.UniformIndex(3);
    if (!ids.empty() && kind == 0) {
      index.Apply(
          RepairOperation::Deletion(ids[rng.UniformIndex(ids.size())]));
    } else if (!ids.empty() && kind == 1) {
      index.Apply(RepairOperation::Update(
          ids[rng.UniformIndex(ids.size())],
          static_cast<AttrIndex>(rng.UniformIndex(3)),
          Value(static_cast<int64_t>(rng.UniformInt(0, 2)))));
    } else {
      index.Apply(RepairOperation::Insertion(Fact(
          0, {Value(static_cast<int64_t>(rng.UniformInt(0, 2))),
              Value(static_cast<int64_t>(rng.UniformInt(0, 2))),
              Value(static_cast<int64_t>(rng.UniformInt(0, 2)))})));
    }
    max_stored = std::max(max_stored, index.NumStoredSlots());
    ASSERT_LE(index.NumStoredSlots(), 2 * index.NumMinimalSubsets() + 1)
        << "step " << step;
    if (step % 20 == 0) {
      ExpectAgrees(index, schema, dcs, "step " + std::to_string(step));
    }
  }
  EXPECT_GT(max_stored, 0u);
  ExpectAgrees(index, schema, dcs, "after churn");
}

}  // namespace
}  // namespace dbim
