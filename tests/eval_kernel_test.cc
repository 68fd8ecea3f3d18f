// Tests for the shared constraint-evaluation kernel: interned predicate
// evaluation must agree with the row-major Fact evaluator of test_util.h,
// the anchored k-ary enumeration must partition the full enumeration
// exactly (every satisfying assignment discovered at precisely one
// anchor), and the derivation counter must match brute force. The kernel
// is the one core under both the batch detector and the incremental
// index, so these are the ground-truth checks both evaluators inherit.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "test_util.h"
#include "violations/eval_kernel.h"
#include "violations/witness_index.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

// The 3-ary chain constraint !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C)
// over relation 0 — mixed equality/disequality shapes across three
// variables.
DenialConstraint ChainDc3() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  return DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds));
}

// Reference: evaluate a DC body on materialized Facts.
bool ReferenceBodyHolds(const DenialConstraint& dc, const Database& db,
                        const std::vector<FactId>& assignment) {
  std::vector<Fact> owned;
  owned.reserve(assignment.size());
  for (const FactId id : assignment) owned.push_back(db.fact(id));
  std::vector<const Fact*> facts;
  for (const Fact& f : owned) facts.push_back(&f);
  return testing::BodyHolds(dc, facts);
}

// A witness index over every live fact of `db`, planned for `sigma`.
WitnessIndex BuildIndex(const std::vector<DenialConstraint>& sigma,
                        const Database& db) {
  WitnessIndex index(sigma, db.schema().num_relations());
  index.Build(db, 1);
  return index;
}

// Live bucket keys over every group of `index`.
size_t BucketKeys(const WitnessIndex& index) {
  size_t keys = 0;
  for (size_t g = 0; g < index.num_groups(); ++g) {
    keys += index.group(g).num_keys();
  }
  return keys;
}

// Anchored supports of constraint `c` of `index` through `anchor`, with
// their emission counts.
std::map<std::vector<FactId>, size_t> Anchored(const DcEval& eval,
                                               const Database& db,
                                               FactId anchor,
                                               const WitnessIndex& index,
                                               size_t c = 0) {
  std::map<std::vector<FactId>, size_t> out;
  EnumerateKAryAnchored(eval, db, anchor, index, c,
                        [&](std::vector<FactId> s) { ++out[std::move(s)]; });
  return out;
}

// The anchored reference: the full enumeration (EnumerateKAry over the
// whole outer relation) restricted to the supports containing `anchor`.
// Both emit each satisfying assignment once, so for every anchor the
// multisets must agree.
std::map<std::vector<FactId>, size_t> AnchoredReference(const DcEval& eval,
                                                        const Database& db,
                                                        FactId anchor) {
  std::map<std::vector<FactId>, size_t> out;
  const size_t rows =
      db.relation_block(eval.dc().var_relation(0)).num_rows();
  EnumerateKAry(eval, db, IndexRange{0, rows}, [&](std::vector<FactId> s) {
    if (std::binary_search(s.begin(), s.end(), anchor)) ++out[std::move(s)];
  });
  return out;
}

// Interned BodyHolds must agree with the Fact-based reference on every
// assignment, across predicate shapes (cross equality/disequality, order
// comparisons, constants present and absent from the pool).
TEST(EvalKernel, BodyHoldsMatchesFactReference) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t'.A & t.B >= t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.C = 2)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.C = 12345)"));  // absent
  for (const uint64_t seed : {3u, 4u}) {
    const Database db = MakeRandomDatabase(schema, 0, 25, 4, seed);
    const std::vector<FactId> ids = db.ids();
    for (const DenialConstraint& dc : dcs) {
      const DcEval eval(dc, db.pool());
      for (const FactId a : ids) {
        for (const FactId b : ids) {
          const RowRef assignment[2] = {BindFact(db, a), BindFact(db, b)};
          EXPECT_EQ(eval.BodyHolds(assignment),
                    ReferenceBodyHolds(dc, db, {a, b}))
              << "seed=" << seed << " a=" << a << " b=" << b;
        }
      }
    }
  }
}

TEST(EvalKernel, SelfInconsistencyMatchesFactReference) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(ChainDc3());
  const Database db = MakeRandomDatabase(schema, 0, 40, 3, 9);
  for (const DenialConstraint& dc : dcs) {
    const DcEval eval(dc, db.pool());
    for (const FactId id : db.ids()) {
      EXPECT_EQ(MakesSelfInconsistentInterned(eval, db, id),
                testing::MakesSelfInconsistent(dc, db.fact(id)))
          << "fact " << id;
    }
  }
}

TEST(EvalKernel, BlockingKeyBucketsRespectValueEquality) {
  const auto schema = MakeAbcSchema();
  const auto dc = *ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)");
  const PairBlockingKeys keys = ExtractPairBlockingKeys(dc, 0, 1);
  const Database db = MakeRandomDatabase(schema, 0, 60, 3, 17);
  KeyBuckets buckets(0, keys.v_attrs);
  buckets.Build(db.relation_block(0));
  const std::vector<FactId> ids = db.ids();
  for (const FactId a : ids) {
    const uint32_t b = buckets.Find(BindFact(db, a), keys.u_attrs);
    ASSERT_NE(b, KeyBuckets::kNone);
    std::vector<FactId> expected;
    for (const FactId other : ids) {
      if (db.fact(a).value(0) == db.fact(other).value(0)) {
        expected.push_back(other);
      }
    }
    const FactSpan facts = buckets.facts(b);
    EXPECT_EQ(std::vector<FactId>(facts.begin(), facts.end()), expected);
  }
}

// For a fixed anchor, the anchored enumeration discovers every satisfying
// assignment containing that anchor exactly once (the anchor occupies the
// first position binding it, so multi-position bindings are not
// re-discovered). Summed over all facts, each assignment is therefore
// found once per *distinct member* of its support: anchored_sum[S] =
// |S| * full[S]. This is the exactly-once invariant incremental k-ary
// maintenance rests on — an off-by-one here would corrupt the
// per-assignment violation multiplicities.
TEST(EvalKernel, AnchoredEnumerationPartitionsFullEnumeration) {
  const auto schema = MakeAbcSchema();
  const DenialConstraint dc = ChainDc3();
  for (const uint64_t seed : {21u, 22u, 23u}) {
    const Database db = MakeRandomDatabase(schema, 0, 20, 3, seed);
    const DcEval eval(dc, db.pool());

    std::map<std::vector<FactId>, size_t> full;
    const size_t rows = db.relation_block(0).num_rows();
    EnumerateKAry(eval, db, IndexRange{0, rows},
                  [&](std::vector<FactId> support) {
                    ++full[std::move(support)];
                  });

    const WitnessIndex index = BuildIndex({dc}, db);
    std::map<std::vector<FactId>, size_t> anchored_sum;
    for (const FactId id : db.ids()) {
      for (const auto& [support, count] : Anchored(eval, db, id, index)) {
        anchored_sum[support] += count;
      }
    }
    std::map<std::vector<FactId>, size_t> expected;
    for (const auto& [support, count] : full) {
      expected[support] = count * support.size();
    }
    EXPECT_EQ(expected, anchored_sum) << "seed=" << seed;

    // Anchored supports all contain their anchor.
    for (const FactId id : db.ids()) {
      for (const auto& [support, count] : Anchored(eval, db, id, index)) {
        EXPECT_TRUE(std::binary_search(support.begin(), support.end(), id));
      }
    }
  }
}

// CountDerivations must equal the brute-force count of full-enumeration
// assignments with exactly that support.
TEST(EvalKernel, CountDerivationsMatchesEnumeration) {
  const auto schema = MakeAbcSchema();
  const DenialConstraint dc = ChainDc3();
  const Database db = MakeRandomDatabase(schema, 0, 16, 3, 31);
  const DcEval eval(dc, db.pool());

  std::map<std::vector<FactId>, size_t> full;
  const size_t rows = db.relation_block(0).num_rows();
  EnumerateKAry(eval, db, IndexRange{0, rows},
                [&](std::vector<FactId> support) {
                  ++full[std::move(support)];
                });
  ASSERT_FALSE(full.empty());
  for (const auto& [support, count] : full) {
    EXPECT_EQ(CountDerivations(eval, db, support), count)
        << "support size " << support.size();
  }
  // A consistent sample of non-witness subsets counts zero.
  const std::vector<FactId> ids = db.ids();
  size_t checked = 0;
  for (size_t i = 0; i + 2 < ids.size() && checked < 10; i += 3, ++checked) {
    const std::vector<FactId> subset = {ids[i], ids[i + 1], ids[i + 2]};
    if (full.count(subset) == 0) {
      EXPECT_EQ(CountDerivations(eval, db, subset), 0u);
    }
  }
}

// The range-sharded enumeration must concatenate to the full range's
// output: splitting [0, n) anywhere changes nothing but the grouping.
TEST(EvalKernel, RangeShardingConcatenates) {
  const auto schema = MakeAbcSchema();
  const DenialConstraint dc = ChainDc3();
  const Database db = MakeRandomDatabase(schema, 0, 24, 3, 41);
  const DcEval eval(dc, db.pool());
  const size_t rows = db.relation_block(0).num_rows();

  std::vector<std::vector<FactId>> whole;
  EnumerateKAry(eval, db, IndexRange{0, rows},
                [&](std::vector<FactId> support) {
                  whole.push_back(std::move(support));
                });
  for (const size_t split : {size_t{1}, rows / 2, rows - 1}) {
    std::vector<std::vector<FactId>> pieces;
    for (const IndexRange range :
         {IndexRange{0, split}, IndexRange{split, rows}}) {
      EnumerateKAry(eval, db, range,
                    [&](std::vector<FactId> support) {
                      pieces.push_back(std::move(support));
                    });
    }
    EXPECT_EQ(whole, pieces) << "split at " << split;
  }
}

// ---- anchored-probe pruning ----

// The 4-ary equality chain with one keyless pair:
// !(t0.A = t1.A & t1.A = t2.A & t2.A = t3.A & t0.B < t3.B).
DenialConstraint WideDc4() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 0}, CompareOp::kEq, Operand{2, 0});
  preds.emplace_back(Operand{2, 0}, CompareOp::kEq, Operand{3, 0});
  preds.emplace_back(Operand{0, 1}, CompareOp::kLt, Operand{3, 1});
  return DenialConstraint(std::vector<RelationId>(4, 0), std::move(preds));
}

// The anchored enumeration must emit exactly the reference multiset for
// every anchor: buckets are candidate supersets re-filtered by the same
// equality predicates, so pruning may only skip rows that could never
// satisfy the body — never change what is found or how often. The k-ary
// constraint comes second, after an FD whose (R, [A]) group its pairs
// share.
TEST(AnchoredPruning, MatchesFullEnumerationPerAnchor) {
  const auto schema = MakeAbcSchema();
  const DenialConstraint fd =
      *ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)");
  for (const DenialConstraint& dc : {ChainDc3(), WideDc4()}) {
    for (const uint64_t seed : {51u, 52u, 53u}) {
      const Database db = MakeRandomDatabase(schema, 0, 16, 3, seed);
      const DcEval eval(dc, db.pool());
      const WitnessIndex index = BuildIndex({fd, dc}, db);
      ASSERT_GE(index.plan(1).pair_group[1 * dc.num_vars() + 0], 0);
      EXPECT_EQ(index.plan(1).pair_group[1 * dc.num_vars() + 0],
                index.plan(0).group[0]);
      for (const FactId id : db.ids()) {
        EXPECT_EQ(AnchoredReference(eval, db, id),
                  Anchored(eval, db, id, index, 1))
            << "k=" << dc.num_vars() << " seed=" << seed << " anchor=" << id;
      }
    }
  }
}

// The same parity must survive churn: Add/Remove keep the bucket index
// exact as facts come and go (a stale bucket entry would surface as a
// duplicate candidate, a lost one as a missing witness), and draining the
// database drains the buckets. Every anchor is checked both in the index
// and out of it, as Apply probes it before entering it.
TEST(AnchoredPruning, IndexMaintainedUnderChurn) {
  const auto schema = MakeAbcSchema();
  const DenialConstraint dc = ChainDc3();
  Database db(schema);
  WitnessIndex index({dc}, schema->num_relations());
  index.Build(db, 1);
  Rng rng(61);
  std::vector<FactId> live;
  auto check_all_anchors = [&](const std::string& at) {
    const DcEval eval(dc, db.pool());
    for (const FactId id : live) {
      const auto reference = AnchoredReference(eval, db, id);
      ASSERT_EQ(reference, Anchored(eval, db, id, index))
          << at << " anchor=" << id;
      index.Remove(db, id);
      ASSERT_EQ(reference, Anchored(eval, db, id, index))
          << at << " anchor=" << id << " outside the index";
      index.Add(db, id);
    }
  };
  for (int step = 0; step < 60; ++step) {
    if (live.empty() || rng.UniformIndex(3) != 0) {
      const FactId id = db.Insert(
          Fact(0, {Value(rng.UniformInt(0, 2)), Value(rng.UniformInt(0, 2)),
                   Value(rng.UniformInt(0, 2))}));
      index.Add(db, id);
      live.push_back(id);
    } else {
      const size_t pick = rng.UniformIndex(live.size());
      const FactId id = live[pick];
      index.Remove(db, id);  // before the delete: Remove locates the row
      db.Delete(id);
      live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
    }
    if (step % 10 == 9) check_all_anchors("step " + std::to_string(step));
  }
  check_all_anchors("final");
  while (!live.empty()) {
    index.Remove(db, live.back());
    db.Delete(live.back());
    live.pop_back();
  }
  EXPECT_EQ(BucketKeys(index), 0u);
}

// A body with no cross-variable equalities has nothing to block on: the
// index holds no groups, and the anchored enumeration scans every
// variable's relation — still exactly the reference multiset.
TEST(AnchoredPruning, KeylessIndexScansEveryVariable) {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kLt, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kLt, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  const auto schema = MakeAbcSchema();
  size_t found = 0;
  for (const uint64_t seed : {55u, 56u}) {
    const Database db = MakeRandomDatabase(schema, 0, 14, 3, seed);
    const DcEval eval(dc, db.pool());
    const WitnessIndex index = BuildIndex({dc}, db);
    EXPECT_EQ(index.num_groups(), 0u);
    for (const FactId id : db.ids()) {
      const auto reference = AnchoredReference(eval, db, id);
      EXPECT_EQ(reference, Anchored(eval, db, id, index))
          << "seed=" << seed << " anchor=" << id;
      found += reference.size();
    }
  }
  EXPECT_GT(found, 0u);  // the scenario actually exercises witnesses
}

// Variables over distinct relations: bucket groups are deduplicated by
// (relation, attrs), so same-named attributes of different relations must
// stay in separate buckets.
TEST(AnchoredPruning, MultiRelationChainKeepsRelationsApart) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B", "C"});
  const RelationId s = schema->AddRelation("S", {"A", "B", "C"});
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc({r, s, r}, std::move(preds));

  Database db(schema);
  Rng rng(71);
  WitnessIndex index({dc}, schema->num_relations());
  index.Build(db, 1);
  ASSERT_GT(index.num_groups(), 0u);
  for (int i = 0; i < 14; ++i) {
    const RelationId rel = i % 2 == 0 ? r : s;
    const FactId id = db.Insert(
        Fact(rel, {Value(rng.UniformInt(0, 2)), Value(rng.UniformInt(0, 2)),
                   Value(rng.UniformInt(0, 2))}));
    index.Add(db, id);
  }
  const DcEval eval(dc, db.pool());
  size_t found = 0;
  for (const FactId id : db.ids()) {
    const auto reference = AnchoredReference(eval, db, id);
    EXPECT_EQ(reference, Anchored(eval, db, id, index)) << "anchor=" << id;
    found += reference.size();
  }
  EXPECT_GT(found, 0u);  // the scenario actually exercises witnesses
}

}  // namespace
}  // namespace dbim
