#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "test_util.h"
#include "violations/conflict_graph.h"
#include "violations/detector.h"
#include "violations/incremental.h"
#include "violations/witness_index.h"

namespace dbim {
namespace {

using testing::BodyHolds;
using testing::MakeRunningExample;
using testing::MakesSelfInconsistent;

TEST(Detector, RunningExampleD1MinimalSubsets) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  // Example 4: seven violating pairs; all five facts problematic.
  EXPECT_EQ(violations.num_minimal_subsets(), 7u);
  EXPECT_EQ(violations.ProblematicFacts().size(), 5u);
  EXPECT_TRUE(violations.SelfInconsistentFacts().empty());
  EXPECT_EQ(violations.MaxSubsetSize(), 2u);
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

// Satisfies stops at the first witness: on a dirty instance it merges
// fewer candidate pairs than the full detection pass, even when the
// detector is configured for several threads (Satisfies always runs the
// sequential path).
TEST(Detector, SatisfiesProbesLessThanFindViolations) {
  const auto schema = testing::MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  const Database db = testing::MakeRandomDatabase(schema, 0, 200, 4, 3);
  DetectorOptions options;
  options.num_threads = 2;
  const ViolationDetector detector(schema, dcs, options);
  auto total_probes = [&] {
    uint64_t probes = 0;
    for (size_t c = 0; c < dcs.size(); ++c) {
      probes += detector.constraint_stats(c).num_probes;
    }
    return probes;
  };
  const uint64_t before = total_probes();
  ASSERT_FALSE(detector.Satisfies(db));
  const uint64_t satisfies_probes = total_probes() - before;
  ASSERT_GT(detector.FindViolations(db).num_minimal_subsets(), 1u);
  const uint64_t find_probes = total_probes() - before - satisfies_probes;
  EXPECT_LT(satisfies_probes, find_probes);
}

// Satisfies walks the constraints one at a time and stops at the first
// witness, however many threads the detector is configured for: on an
// instance that violates every constraint, the witness comes from
// constraint 0, and no later binary constraint merges a single candidate
// (each one's probes stay 0, although a full detection then finds
// candidates for every one of them).
TEST(Detector, SatisfiesStopsAcrossConstraints) {
  const auto schema = testing::MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t'.A & t.C > t'.C)"));
  Database db(schema);
  db.Insert(Fact(0, {Value(int64_t{1}), Value(int64_t{1}), Value(int64_t{5})}));
  db.Insert(Fact(0, {Value(int64_t{1}), Value(int64_t{2}), Value(int64_t{4})}));
  db.Insert(Fact(0, {Value(int64_t{2}), Value(int64_t{1}), Value(int64_t{3})}));
  DetectorOptions options;
  options.num_threads = 2;
  const ViolationDetector detector(schema, dcs, options);
  ASSERT_FALSE(detector.Satisfies(db));
  EXPECT_GT(detector.constraint_stats(0).num_probes, 0u);
  for (size_t c = 1; c < dcs.size(); ++c) {
    EXPECT_EQ(detector.constraint_stats(c).num_probes, 0u) << c;
  }
  detector.FindViolations(db);
  for (size_t c = 1; c < dcs.size(); ++c) {
    EXPECT_GT(detector.constraint_stats(c).num_probes, 0u) << c;
  }
}

TEST(Detector, RunningExampleMatchesOracle) {
  const auto example = MakeRunningExample();
  // Sigma's FDs scan their blocking buckets pairwise; the added DC has no
  // cross-variable equality, so its one bucket is probed through the order
  // index.
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
  EXPECT_EQ(testing::Subsets(violations)[0], (std::vector<FactId>{0, 1}));
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
  EXPECT_EQ(testing::Subsets(violations)[0],
            (std::vector<FactId>{0, 1, 2}));
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


TEST(Detector, ViolatingPairRatio) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  // 7 violating pairs out of C(5,2) = 10.
  EXPECT_DOUBLE_EQ(violations.ViolatingPairRatio(example.d1.size()), 0.7);
}

// ---- Order-predicate probe ----

// What detection over a freshly built database must report, computed by
// brute force from the detector's contract: the contradictory facts in id
// order; then per binary constraint the body-holding ordered pairs
// (f, f') of distinct facts, neither contradictory, in discovery order
// (f ascending, then f' ascending — a fresh database keeps insertion order
// in its rows), deduplicated across the whole result; then the minimal
// supports of the k-ary constraints' satisfying assignments not already
// reported, by size, then lexicographically. A binary constraint probes
// every such pair and fires once per unordered pair; a k-ary constraint
// probes and fires once per satisfying assignment. Each subset's
// multiplicity counts its derivations: one for a contradictory fact's
// singleton, one per binary constraint deriving the pair in either
// orientation, and one per k-ary satisfying assignment with exactly that
// support.
struct BruteForceDetection {
  std::vector<std::vector<FactId>> subsets;
  std::vector<uint32_t> multiplicities;  // parallel to subsets
  std::vector<DetectorConstraintStats> stats;
};

BruteForceDetection BruteForceDetect(const std::vector<DenialConstraint>& dcs,
                                     const Database& db) {
  const std::vector<FactId> ids = db.ids();
  std::vector<Fact> facts;
  for (const FactId id : ids) facts.push_back(db.fact(id));
  std::vector<bool> contradictory(facts.size(), false);
  BruteForceDetection out;
  std::map<std::vector<FactId>, size_t> admitted;  // subset -> slot
  auto admit = [&](std::vector<FactId> subset, uint32_t derivations) {
    const auto [it, fresh] = admitted.emplace(subset, out.subsets.size());
    if (fresh) {
      out.subsets.push_back(std::move(subset));
      out.multiplicities.push_back(derivations);
    } else {
      out.multiplicities[it->second] += derivations;
    }
  };
  for (size_t i = 0; i < facts.size(); ++i) {
    for (const DenialConstraint& dc : dcs) {
      if (MakesSelfInconsistent(dc, facts[i])) contradictory[i] = true;
    }
    if (contradictory[i]) admit({ids[i]}, 1);
  }
  out.stats.resize(dcs.size());
  for (size_t c = 0; c < dcs.size(); ++c) {
    const DenialConstraint& dc = dcs[c];
    if (dc.num_vars() != 2) continue;
    std::set<std::vector<FactId>> fired;
    for (size_t i = 0; i < facts.size(); ++i) {
      for (size_t j = 0; j < facts.size(); ++j) {
        if (i == j || contradictory[i] || contradictory[j]) continue;
        if (facts[i].relation() != dc.var_relation(0) ||
            facts[j].relation() != dc.var_relation(1) ||
            !BodyHolds(dc, facts[i], facts[j])) {
          continue;
        }
        ++out.stats[c].num_probes;
        const std::vector<FactId> pair = {std::min(ids[i], ids[j]),
                                          std::max(ids[i], ids[j])};
        if (!fired.insert(pair).second) continue;
        ++out.stats[c].num_fires;
        admit(pair, 1);
      }
    }
  }
  // K-ary: every assignment (facts may repeat across variables), counted
  // per support.
  std::map<std::vector<FactId>, uint32_t> supports;
  for (size_t c = 0; c < dcs.size(); ++c) {
    const DenialConstraint& dc = dcs[c];
    if (dc.num_vars() < 3) continue;
    std::vector<size_t> pick(dc.num_vars(), 0);
    std::vector<const Fact*> assignment(dc.num_vars());
    auto assign = [&](auto&& self, size_t var) -> void {
      if (var == dc.num_vars()) {
        if (!BodyHolds(dc, assignment)) return;
        ++out.stats[c].num_probes;
        ++out.stats[c].num_fires;
        std::vector<FactId> support;
        for (const size_t i : pick) support.push_back(ids[i]);
        std::sort(support.begin(), support.end());
        support.erase(std::unique(support.begin(), support.end()),
                      support.end());
        ++supports[support];
        return;
      }
      for (size_t i = 0; i < facts.size(); ++i) {
        if (facts[i].relation() != dc.var_relation(var)) continue;
        pick[var] = i;
        assignment[var] = &facts[i];
        self(self, var + 1);
      }
    };
    assign(assign, 0);
  }
  std::vector<std::pair<std::vector<FactId>, uint32_t>> by_size(
      supports.begin(), supports.end());
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](const auto& a, const auto& b) {
                     return a.first.size() < b.first.size();
                   });
  std::set<FactId> contradictory_ids;
  for (size_t i = 0; i < facts.size(); ++i) {
    if (contradictory[i]) contradictory_ids.insert(ids[i]);
  }
  for (auto& [support, count] : by_size) {
    bool minimal = true;
    for (const FactId id : support) {
      if (contradictory_ids.count(id) > 0) minimal = support.size() == 1;
    }
    for (const auto& [subset, slot] : admitted) {
      if (subset.size() < support.size() &&
          std::includes(support.begin(), support.end(), subset.begin(),
                        subset.end())) {
        minimal = false;
      }
    }
    if (minimal) admit(support, count);
  }
  return out;
}

// Detection of `dcs` over `db` matches the oracle, reports in the
// brute-force discovery order with the brute-force multiplicities,
// Satisfies agrees with it, and every constraint's counters match brute
// force.
void ExpectMatchesBruteForce(std::shared_ptr<const Schema> schema,
                             const std::vector<DenialConstraint>& dcs,
                             const Database& db) {
  const ViolationDetector detector(schema, dcs);
  const ViolationSet violations = detector.FindViolations(db);
  testing::ExpectMatchesOracle(dcs, db, violations);
  const BruteForceDetection expected = BruteForceDetect(dcs, db);
  EXPECT_EQ(testing::Subsets(violations), expected.subsets);
  EXPECT_EQ(violations.multiplicities(), expected.multiplicities);
  for (size_t c = 0; c < dcs.size(); ++c) {
    const DetectorConstraintStats actual = detector.constraint_stats(c);
    EXPECT_EQ(actual.num_probes, expected.stats[c].num_probes) << c;
    EXPECT_EQ(actual.num_fires, expected.stats[c].num_fires) << c;
  }
  EXPECT_EQ(ViolationDetector(schema, dcs).Satisfies(db), violations.empty());
}

std::string Describe(int trial, const std::vector<DenialConstraint>& dcs,
                     const Schema& schema) {
  std::string where = "trial " + std::to_string(trial) + ":";
  for (const DenialConstraint& dc : dcs) where += " " + dc.ToString(schema);
  return where;
}

// Random binary DCs with 1-3 cross order predicates (every operator, both
// operand orientations, cross-attribute and cross-relation, mixed with
// equality keys, `!=`, constants and same-variable predicates) over
// tie-heavy mixed-kind data; then random `!=` DCs (1-2 cross `!=`, same-
// or cross-attribute and cross-relation, keyed and keyless, mixed with
// constants, same-variable predicates and sometimes one cross order
// predicate, whose key then wins over the `!=` split) over columns of
// every class shape the split distinguishes. Each must match brute force.
TEST(Detector, OrderDcFuzzMatchesOracleAndCounters) {
  const auto schema = testing::MakeRsSchema();
  Rng rng(2024);
  for (int trial = 0; trial < 600; ++trial) {
    const size_t num_order = 1 + trial % 3;
    const RelationId r1 = (trial / 3) % 2 == 0 ? 0 : 1;
    std::vector<DenialConstraint> dcs = {
        testing::RandomOrderDc(rng, *schema, 0, r1, num_order)};
    if (trial % 4 == 0) {
      dcs.push_back(testing::RandomOrderDc(rng, *schema, 1, 1, 2));
    }
    const int64_t domain = trial % 5 == 0 ? 2 : 5;
    const size_t facts = 8 + rng.UniformIndex(30);
    const Database db = testing::MakeMixedDatabase(schema, facts, domain,
                                                   rng.UniformIndex(1 << 30));
    SCOPED_TRACE(Describe(trial, dcs, *schema));
    ExpectMatchesBruteForce(schema, dcs, db);
  }
  for (int trial = 0; trial < 600; ++trial) {
    const size_t num_ne = 1 + trial % 2;
    const RelationId r1 = (trial / 2) % 2 == 0 ? 0 : 1;
    std::vector<DenialConstraint> dcs = {
        testing::RandomNeDc(rng, *schema, 0, r1, num_ne, trial % 5 == 0)};
    if (trial % 4 == 0) {
      dcs.push_back(testing::RandomNeDc(rng, *schema, 1, 1, 1, false));
    }
    const size_t facts = 8 + rng.UniformIndex(30);
    const Database db =
        testing::MakeSkewedDatabase(schema, facts, rng.UniformIndex(1 << 30));
    SCOPED_TRACE(Describe(trial, dcs, *schema));
    ExpectMatchesBruteForce(schema, dcs, db);
  }
}

// Unary, binary and k-ary constraints together, the k-ary ones chained on
// equality keys, keyless with an order predicate, across relations and
// repeating facts across variables: each subset's derivation count, the
// discovery order and every constraint's counters match brute force.
TEST(Detector, MixedArityMultiplicitiesMatchBruteForce) {
  const auto schema = testing::MakeRsSchema();
  auto ternary = [](std::vector<RelationId> rels,
                    std::vector<Predicate> preds) {
    return DenialConstraint(std::move(rels), std::move(preds));
  };
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(ternary({0, 0, 0}, {Predicate(Operand{0, 0}, CompareOp::kEq,
                                              Operand{1, 0}),
                                    Predicate(Operand{1, 1}, CompareOp::kEq,
                                              Operand{2, 1}),
                                    Predicate(Operand{0, 2}, CompareOp::kNe,
                                              Operand{2, 2})}));
  dcs.push_back(ternary({0, 1, 1}, {Predicate(Operand{0, 0}, CompareOp::kEq,
                                              Operand{1, 0}),
                                    Predicate(Operand{0, 0}, CompareOp::kEq,
                                              Operand{2, 0}),
                                    Predicate(Operand{1, 3}, CompareOp::kNe,
                                              Operand{2, 3})}));
  dcs.push_back(ternary({1, 1, 1}, {Predicate(Operand{0, 1}, CompareOp::kLt,
                                              Operand{1, 1}),
                                    Predicate(Operand{1, 2}, CompareOp::kLe,
                                              Operand{2, 2}),
                                    Predicate(Operand{0, 3}, CompareOp::kEq,
                                              Operand{2, 3})}));
  dcs.push_back(*ParseDc(*schema, 1, "!(t.C < t.D)"));
  Rng rng(77);
  size_t kary_subsets = 0;
  size_t rederived = 0;
  for (int trial = 0; trial < 120; ++trial) {
    const Database db = testing::MakeMixedDatabase(
        schema, 3 + rng.UniformIndex(6), trial % 3 == 0 ? 2 : 4,
        rng.UniformIndex(1 << 30));
    SCOPED_TRACE(Describe(trial, dcs, *schema));
    ExpectMatchesBruteForce(schema, dcs, db);
    const BruteForceDetection expected = BruteForceDetect(dcs, db);
    for (size_t i = 0; i < expected.subsets.size(); ++i) {
      kary_subsets += expected.subsets[i].size() == 3;
      rederived += expected.multiplicities[i] > 1;
    }
  }
  // The instances exercise what the test is about.
  EXPECT_GT(kary_subsets, 0u);
  EXPECT_GT(rederived, 0u);
}

// Bucket-major detection treats these shapes apart (see
// MakeBucketShapesDatabase and BucketShapeDcs): one-fact, one-class,
// majority-class and all-distinct buckets, self-inconsistent facts inside a
// multi-class bucket and a probe bucket with no partner bucket, under an FD
// walked pair by pair from its `!=` splits, a symmetric body whose probe and
// partner `!=` attributes differ, a cross-relation FD and `<=`/`>=` ties
// that fire both orientations of a pair. Each constraint alone and all of
// them together match brute force: result order, multiplicities and
// counters.
TEST(Detector, BucketShapesMatchBruteForce) {
  const auto schema = testing::MakeRsSchema();
  const std::vector<DenialConstraint> all = testing::BucketShapeDcs(*schema);
  bool ties_fire_both_ways = false;
  bool self_inconsistent = false;
  int trial = 0;
  for (const size_t scale : {2u, 3u, 5u, 9u}) {
    for (const uint64_t seed : {1u, 2u, 3u}) {
      const Database db =
          testing::MakeBucketShapesDatabase(schema, scale, seed);
      for (size_t c = 0; c <= all.size(); ++c) {
        const std::vector<DenialConstraint> dcs =
            c == all.size() ? all : std::vector<DenialConstraint>{all[c]};
        SCOPED_TRACE(Describe(trial++, dcs, *schema));
        ExpectMatchesBruteForce(schema, dcs, db);
      }
      const BruteForceDetection ties = BruteForceDetect({all[3]}, db);
      ties_fire_both_ways |=
          ties.stats[0].num_probes > ties.stats[0].num_fires;
      self_inconsistent |= !ViolationDetector(schema, all)
                                .FindViolations(db)
                                .SelfInconsistentFacts()
                                .empty();
    }
  }
  // Keys are class ids, equal across relations whenever the values are:
  // R's int 1 and double 1.0 share one bucket, and S's facts with a 1, a
  // 1.0 or the string "k" find R's bucket of that key, so the
  // cross-relation FD R.A -> S.B fires across kinds.
  Database db(schema);
  const FactId one = db.Insert(Fact(0, {Value(1), Value(0), Value(0), Value(1)}));
  const FactId one_dbl =
      db.Insert(Fact(0, {Value(1.0), Value(1), Value(0), Value(1)}));
  db.Insert(Fact(0, {Value("k"), Value(0), Value(0), Value(1)}));
  db.Insert(Fact(1, {Value(1.0), Value(2), Value(0), Value(1)}));
  db.Insert(Fact(1, {Value(1), Value(0), Value(0), Value(1)}));
  db.Insert(Fact(1, {Value("k"), Value(3), Value(0), Value(1)}));
  for (size_t c = 0; c <= all.size(); ++c) {
    const std::vector<DenialConstraint> dcs =
        c == all.size() ? all : std::vector<DenialConstraint>{all[c]};
    SCOPED_TRACE(Describe(trial++, dcs, *schema));
    ExpectMatchesBruteForce(schema, dcs, db);
  }
  WitnessIndex index(all, schema->num_relations());
  index.Build(db, 1);
  const KeyBuckets& r_by_a = index.group(index.plan(2).group[0]);
  const uint32_t bucket = r_by_a.Find(BindFact(db, one));
  ASSERT_NE(bucket, KeyBuckets::kNone);
  EXPECT_EQ(r_by_a.Find(BindFact(db, one_dbl)), bucket);
  EXPECT_EQ(r_by_a.facts(bucket).size, 2u);
  EXPECT_EQ(BruteForceDetect({all[2]}, db).subsets.size(), 4u);

  // The instances exercise what the test is about.
  EXPECT_TRUE(ties_fire_both_ways);
  EXPECT_TRUE(self_inconsistent);
}

// The witness index yields, for every probe, exactly the facts of the
// partner bucket whose indexed predicates hold, whether it was bulk-built
// or entered fact by fact, and both pass CheckInvariant, which compares
// them with a rebuild. The `!=` split is exercised on buckets with a strict
// majority class, two tied classes, no majority, a single class, a
// majority candidate that is no majority and a single fact, and (through a
// cross-attribute `!=`) with probe classes absent from the bucket, on both
// probe sides. An order key wins over the `!=`: the index then yields the
// facts its order predicate admits.
TEST(WitnessIndex, YieldsIndexedPartnersBulkOrFactByFact) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const std::vector<std::vector<int64_t>> bucket_shapes = {
      {3, 1, 3, 3, 2, 3, 3},  // strict majority
      {1, 2, 2, 1, 1, 2},     // tied
      {1, 2, 3, 4, 1, 2, 5},  // no majority
      {4, 4, 4, 4},           // single class
      {2, 1, 1, 3, 3, 2, 1},  // majority candidate that is no majority
      {7}};
  // Each constraint with the constraint of its indexed predicate alone.
  std::vector<DenialConstraint> dcs;
  std::vector<DenialConstraint> indexed;
  for (const AttrIndex probe_attr : {AttrIndex{1}, AttrIndex{0}}) {
    for (const bool probe_lhs : {true, false}) {
      // `t[probe] != t'[B]`, keyless: one bucket.
      const Operand probe{0, probe_attr};
      const Operand partner{1, 1};
      const DenialConstraint dc(
          {r, r}, {probe_lhs ? Predicate(probe, CompareOp::kNe, partner)
                             : Predicate(partner, CompareOp::kNe, probe)});
      dcs.push_back(dc);
      indexed.push_back(dc);
    }
  }
  dcs.push_back(DenialConstraint(
      {r, r}, {Predicate(Operand{0, 1}, CompareOp::kNe, Operand{1, 1}),
               Predicate(Operand{0, 0}, CompareOp::kLt, Operand{1, 0})}));
  indexed.push_back(DenialConstraint(
      {r, r}, {Predicate(Operand{0, 0}, CompareOp::kLt, Operand{1, 0})}));

  for (const auto& b_cells : bucket_shapes) {
    Database db(schema);
    WitnessIndex by_fact(dcs, schema->num_relations());
    by_fact.Build(db, 1);
    for (size_t i = 0; i < b_cells.size(); ++i) {
      // A spans 0..5 and so holds classes that B lacks.
      const FactId id = db.Insert(
          Fact(r, {Value(static_cast<int64_t>(i % 6)), Value(b_cells[i])}));
      by_fact.Add(db, id);
    }
    WitnessIndex bulk(dcs, schema->num_relations());
    bulk.Build(db, 2);
    const std::vector<FactId> ids = db.ids();
    for (const WitnessIndex* index : {&bulk, &by_fact}) {
      SCOPED_TRACE(index == &bulk ? "bulk" : "fact by fact");
      std::string error;
      ASSERT_TRUE(index->CheckInvariant(db, &error)) << error;
      for (size_t c = 0; c < dcs.size(); ++c) {
        SCOPED_TRACE(dcs[c].ToString(*schema));
        const WitnessIndex::DcPlan& plan = index->plan(c);
        ASSERT_GE(plan.side[0].index, 0);
        for (int side = 0; side < (plan.symmetric ? 1 : 2); ++side) {
          for (const FactId self : ids) {
            std::vector<FactId> expected;
            for (const FactId other : ids) {
              const Fact& s = db.fact(self);
              const Fact& o = db.fact(other);
              if (side == 0 ? BodyHolds(indexed[c], s, o)
                            : BodyHolds(indexed[c], o, s)) {
                expected.push_back(other);
              }
            }
            std::vector<FactId> actual;
            index->ForEachPartner(db, c, side, BindFact(db, self),
                                  [&](FactId id) { actual.push_back(id); });
            std::sort(actual.begin(), actual.end());
            EXPECT_EQ(actual, expected)
                << "side " << side << " probe fact " << self;
          }
        }
      }
    }
  }
}

// Whether the order index admits the partner key `q` against the probe key
// `p` under `p op q`: a NaN on either side admits, a probe integer beyond
// 2^53 reads a strict comparison as non-strict (it ties with the integers
// that round to its double), and otherwise the index ranks keys by kind
// (null, number, string), then numbers through their double, then strings.
bool OrderIndexAdmits(const Value& p, CompareOp op, const Value& q) {
  auto is_nan = [](const Value& v) {
    return v.kind() == Value::Kind::kDouble && std::isnan(v.as_double());
  };
  if (is_nan(p) || is_nan(q)) return true;
  auto rank = [](const Value& v) {
    return v.is_null() ? 0 : v.is_numeric() ? 1 : 2;
  };
  auto less = [&](const Value& x, const Value& y) {
    if (rank(x) != rank(y)) return rank(x) < rank(y);
    if (rank(x) == 1) return x.numeric() < y.numeric();
    return rank(x) == 2 && x.as_string() < y.as_string();
  };
  const int64_t wide = int64_t{1} << 53;
  const bool relax = p.kind() == Value::Kind::kInt &&
                     (p.as_int() >= wide || p.as_int() <= -wide);
  switch (op) {
    case CompareOp::kLt:
      return relax ? !less(q, p) : less(p, q);
    case CompareOp::kLe:
      return !less(q, p);
    case CompareOp::kGt:
      return relax ? !less(p, q) : less(q, p);
    default:
      return !less(p, q);
  }
}

// One keyless order bucket of thousands of entries under the 16 bodies
// `t.A op t'.A & t.B op' t'.B`, every operator in both positions, which
// share one OrderRuns. The keys mix tie-heavy small integers with whole
// doubles of the same values (the even ones negated, -0.0 among them),
// nulls, strings, NaNs and integers beyond +-2^53 that round to one
// double; runs without a string rank their values by radix. The index is bulk-built, and entered
// fact by fact (carry merges rebuild runs of every size), then churned by
// a long run of removals (tombstones, and full rebuilds once they
// outnumber the live entries) and inserts. Each time both pass
// CheckInvariant, and every probe, on either side, yields exactly the
// entries the index's ranking admits (an entry with a NaN key is admitted
// by every probe), thousands of them for some probe of every body.
TEST(WitnessIndex, LargeOrderBucketMatchesBruteForce) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe};
  std::vector<DenialConstraint> dcs;
  for (const CompareOp op0 : ops) {
    for (const CompareOp op1 : ops) {
      dcs.push_back(DenialConstraint(
          {r, r}, {Predicate(Operand{0, 0}, op0, Operand{1, 0}),
                   Predicate(Operand{0, 1}, op1, Operand{1, 1})}));
    }
  }
  Rng rng(4096);
  const int64_t wide = int64_t{1} << 53;
  auto cell = [&]() -> Value {
    const size_t kind = rng.UniformIndex(100);
    const int64_t x = rng.UniformInt(0, 99);
    if (kind < 60) return Value(x);
    if (kind < 80) return Value(static_cast<double>(x % 2 == 0 ? -x : x));
    if (kind < 85) return Value();
    if (kind < 90) return Value(std::string(1, static_cast<char>('a' + x % 4)));
    if (kind < 92) return Value(std::nan(""));
    if (kind < 96) return Value(wide + x % 3);
    return Value(-wide - x % 3);
  };

  Database db(schema);
  WitnessIndex by_fact(dcs, schema->num_relations());
  by_fact.Build(db, 1);
  std::vector<FactId> churnable;
  auto insert = [&](Value a, Value b) {
    const FactId id = db.Insert(Fact(r, {std::move(a), std::move(b)}));
    by_fact.Add(db, id);
    return id;
  };
  // Low, high and middle keys, so that every body has a probe with
  // thousands of partners, and NaN, wide-integer and null keys.
  std::vector<FactId> probes;
  for (const auto& [a, b] : std::vector<std::pair<Value, Value>>{
           {Value(3), Value(3)},
           {Value(3), Value(96)},
           {Value(96), Value(3)},
           {Value(96.0), Value(96)},
           {Value(50), Value(50.0)},
           {Value(std::nan("")), Value(10)},
           {Value(wide + 1), Value(wide)},
           {Value(-wide - 1), Value("b")},
           {Value(), Value(7)}}) {
    probes.push_back(insert(a, b));
  }
  while (db.size() < 4200) churnable.push_back(insert(cell(), cell()));

  auto check = [&](const std::string& stage) {
    SCOPED_TRACE(stage);
    ASSERT_GE(db.size(), 4096u);
    WitnessIndex bulk(dcs, schema->num_relations());
    bulk.Build(db, 2);
    std::vector<std::pair<FactId, Fact>> facts;
    db.ForEachId([&](FactId id) { facts.emplace_back(id, db.fact(id)); });
    for (size_t c = 0; c < dcs.size(); ++c) {
      SCOPED_TRACE(dcs[c].ToString(*schema));
      size_t largest = 0;
      for (int side = 0; side < 2; ++side) {
        for (const FactId self : probes) {
          const Fact probe = db.fact(self);
          std::vector<FactId> expected;
          for (const auto& [id, partner] : facts) {
            bool admitted = true;
            for (size_t k = 0; k < 2; ++k) {
              const CompareOp op =
                  side == 0 ? dcs[c].predicates()[k].op()
                            : FlipOp(dcs[c].predicates()[k].op());
              admitted = admitted &&
                         OrderIndexAdmits(probe.value(k), op, partner.value(k));
            }
            const auto nan = [](const Value& v) {
              return v.kind() == Value::Kind::kDouble &&
                     std::isnan(v.as_double());
            };
            if (admitted || nan(partner.value(0)) || nan(partner.value(1))) {
              expected.push_back(id);
            }
          }
          for (const WitnessIndex* index : {&bulk, &by_fact}) {
            std::vector<FactId> actual;
            index->ForEachPartner(db, c, side, BindFact(db, self),
                                  [&](FactId id) { actual.push_back(id); });
            std::sort(actual.begin(), actual.end());
            EXPECT_EQ(actual, expected)
                << (index == &bulk ? "bulk" : "fact by fact") << " side "
                << side << " probe fact " << self;
          }
          largest = std::max(largest, expected.size());
        }
      }
      EXPECT_GE(largest, 1000u);
    }
    for (const WitnessIndex* index : {&bulk, &by_fact}) {
      std::string error;
      EXPECT_TRUE(index->CheckInvariant(db, &error)) << error;
    }
  };
  check("entered fact by fact");
  // Churn: the first half removes three facts for every one it inserts,
  // down to about half the bucket, the second half the other way round.
  for (int step = 0; step < 8000; ++step) {
    if ((step % 4 == 3) == (step < 4000)) {
      churnable.push_back(insert(cell(), cell()));
      continue;
    }
    const size_t at = rng.UniformIndex(churnable.size());
    by_fact.Remove(db, churnable[at]);
    db.Delete(churnable[at]);
    churnable[at] = churnable.back();
    churnable.pop_back();
  }
  check("after a long run of removals and inserts");
}

// A keyed order DC whose equality key is nearly unique, so almost every
// bucket's order runs hold one entry (the one-entry run skips the sorts
// and the MinMaxTable levels), with a few shared keys and NaN cells among
// the order keys. Fresh detection matches brute force, result order and
// counters included, and the index passes its invariant; under a long run
// of Apply churn (deletes, inserts onto new and shared keys, updates of
// every column) the maintained set matches brute force up to order,
// multiplicities included.
TEST(Detector, SparseKeyOrderDcMatchesBruteForce) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B", "C"});
  const std::vector<DenialConstraint> dcs = {
      *ParseDc(*schema, r, "!(t.A = t'.A & t.B < t'.B & t.C > t'.C)"),
      *ParseDc(*schema, r, "!(t.A = t'.A & t.B <= t'.B)")};
  Rng rng(31);
  auto cell = [&](int64_t domain) -> Value {
    if (rng.UniformIndex(40) == 0) return Value(std::nan(""));
    return Value(rng.UniformInt(0, domain - 1));
  };
  // Keys from a range of 4000 for 240 facts, so nearly every key holds
  // one fact; the first 12 facts share key -1.
  auto fact = [&](size_t i) {
    const Value key = i < 12 ? Value(-1) : Value(rng.UniformInt(0, 3999));
    return Fact(r, {key, cell(4), cell(4)});
  };
  Database db(schema);
  for (size_t i = 0; i < 240; ++i) db.Insert(fact(i));
  for (const size_t c : {0u, 1u}) {
    SCOPED_TRACE(dcs[c].ToString(*schema));
    ExpectMatchesBruteForce(schema, {dcs[c]}, db);
  }
  ExpectMatchesBruteForce(schema, dcs, db);
  WitnessIndex bulk(dcs, schema->num_relations());
  bulk.Build(db, 1);
  std::string error;
  EXPECT_TRUE(bulk.CheckInvariant(db, &error)) << error;
  size_t one_fact = 0;
  const KeyBuckets& by_a = bulk.group(bulk.plan(0).group[0]);
  for (uint32_t b = 0; b < by_a.bucket_bound(); ++b) {
    one_fact += by_a.facts(b).size == 1;
  }
  EXPECT_GT(one_fact, 200u);

  auto sorted = [](const std::vector<std::vector<FactId>>& subsets,
                   const std::vector<uint32_t>& multiplicities) {
    std::vector<std::pair<std::vector<FactId>, uint32_t>> out;
    for (size_t i = 0; i < subsets.size(); ++i) {
      out.emplace_back(subsets[i], multiplicities[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  IncrementalViolationIndex index(schema, dcs, db);
  for (int step = 0; step < 600; ++step) {
    const std::vector<FactId> ids = index.db().ids();
    const FactId id = ids[rng.UniformIndex(ids.size())];
    switch (rng.UniformIndex(4)) {
      case 0:
        index.Apply(RepairOperation::Deletion(id));
        break;
      case 1:
        index.Apply(RepairOperation::Insertion(fact(rng.UniformIndex(24))));
        break;
      case 2:
        index.Apply(RepairOperation::Update(
            id, 0, rng.UniformIndex(3) == 0 ? Value(-1)
                                            : Value(rng.UniformInt(0, 3999))));
        break;
      default:
        index.Apply(RepairOperation::Update(
            id, static_cast<AttrIndex>(1 + rng.UniformIndex(2)), cell(4)));
    }
    if (step % 50 != 49) continue;
    SCOPED_TRACE("step " + std::to_string(step));
    ASSERT_TRUE(index.CheckWatcherInvariant(&error)) << error;
    const ViolationSet maintained = index.Snapshot();
    const BruteForceDetection expected = BruteForceDetect(dcs, index.db());
    EXPECT_EQ(sorted(testing::Subsets(maintained), maintained.multiplicities()),
              sorted(expected.subsets, expected.multiplicities));
    ExpectMatchesBruteForce(schema, dcs, index.db());
  }
}

// Values on which Value::operator< may not be a strict weak order — a NaN,
// integers beyond 2^53 beside doubles — are not ranked; the order index
// then scans the bucket pairwise, and detection still matches the oracle.
// (Equality on a NaN column is left out: class ids and Value::== disagree
// on whether NaN equals itself, which is why the decoders reject NaN.)
TEST(Detector, UnrankableOrderValuesMatchOracle) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const int64_t wide = int64_t{1} << 60;
  const Value a_cells[] = {Value(std::nan("")), Value(1.0), Value(2),
                           Value(wide),         Value(wide + 1), Value("s"),
                           Value()};
  Database db(schema);
  for (const Value& a : a_cells) {
    for (const Value& b : {Value(1), Value(3.5), Value("x")}) {
      db.Insert(Fact(r, {a, b}));
    }
  }
  for (const char* text :
       {"!(t.A < t'.A & t.B > t'.B)", "!(t.A <= t'.A & t.B > t'.B)",
        "!(t.A > t'.B)", "!(t.B = t'.B & t.A > t'.A)"}) {
    const std::vector<DenialConstraint> dcs = {*ParseDc(*schema, r, text)};
    SCOPED_TRACE(text);
    const ViolationSet violations =
        ViolationDetector(schema, dcs).FindViolations(db);
    EXPECT_FALSE(violations.empty());
    testing::ExpectMatchesOracle(dcs, db, violations);
  }
}

// ---- ConflictGraph ----

TEST(ConflictGraph, BuildsFromRunningExample) {
  const auto example = MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const ViolationSet violations = detector.FindViolations(example.d1);
  const ConflictGraph graph = ConflictGraph::Build(example.d1, violations);
  EXPECT_EQ(graph.num_vertices(), 5u);
  EXPECT_EQ(graph.graph().num_edges(), 7u);
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

// A hand-made MI set, added out of id order, with singletons, pairs and a
// triple: vertices ascend by fact id whatever the input order, every
// lookup resolves, edges come out sorted, and the covering problem holds
// one set per minimal subset.
TEST(ConflictGraph, BuildsFromHandMadeSetOutOfIdOrder) {
  const auto schema = testing::MakeAbcSchema();
  Database db = testing::MakeRandomDatabase(schema, 0, 20, 5, 3);
  const std::vector<FactId> ids = db.ids();
  ASSERT_EQ(ids.size(), 20u);
  for (const FactId id : ids) db.set_deletion_cost(id, 0.5 + id);
  auto f = [&](size_t i) { return ids[i]; };
  ViolationSet violations;
  violations.Add({f(11), f(16)});
  violations.Add({f(12)});
  violations.Add({f(3), f(5), f(16)});
  violations.Add({f(5), f(11)});
  violations.Add({f(1)});
  violations.Add({f(3), f(8)});
  const ConflictGraph graph = ConflictGraph::Build(db, violations);

  const std::vector<FactId> problematic = {f(1), f(3),  f(5), f(8),
                                           f(11), f(12), f(16)};
  ASSERT_EQ(graph.num_vertices(), problematic.size());
  for (uint32_t v = 0; v < graph.num_vertices(); ++v) {
    EXPECT_EQ(graph.fact_of(v), problematic[v]);
    EXPECT_EQ(graph.vertex_of(problematic[v]), v);
    EXPECT_TRUE(graph.IsProblematic(problematic[v]));
    EXPECT_EQ(graph.weights()[v], db.deletion_cost(problematic[v]));
  }
  // Absent ids below, between and above the problematic ones.
  for (const size_t i : {size_t{0}, size_t{4}, size_t{9}, size_t{13},
                         size_t{17}, size_t{19}}) {
    EXPECT_FALSE(graph.IsProblematic(f(i))) << i;
  }
  auto v = [&](size_t i) { return graph.vertex_of(f(i)); };
  const std::vector<std::pair<uint32_t, uint32_t>> edges = {
      {v(3), v(8)}, {v(5), v(11)}, {v(11), v(16)}};
  EXPECT_EQ(graph.graph().edges(), edges);
  EXPECT_EQ(graph.graph().num_vertices(), graph.num_vertices());
  const std::vector<std::vector<uint32_t>> hyperedges = {
      {v(3), v(5), v(16)}};
  EXPECT_EQ(graph.hyperedges(), hyperedges);
  EXPECT_EQ(graph.num_self_inconsistent(), 2u);
  for (uint32_t u = 0; u < graph.num_vertices(); ++u) {
    const bool expected = u == v(1) || u == v(12);
    EXPECT_EQ(graph.self_inconsistent()[u], expected) << u;
  }
  const CoveringProblem covering = graph.ToCovering();
  EXPECT_EQ(covering.costs, graph.weights());
  const std::vector<std::vector<uint32_t>> sets = {
      {v(1)}, {v(12)}, {v(3), v(8)}, {v(5), v(11)}, {v(11), v(16)},
      {v(3), v(5), v(16)}};
  EXPECT_EQ(covering.sets, sets);
  EXPECT_DEATH(graph.vertex_of(f(4)), "not problematic");
}

// The graph as its definition states it, over random flat MI sets whose
// fact ids reach past 2^16 and past 2^24, so that the numbering's radix
// sort runs each of its digit passes: the vertices are the sorted union of
// the subsets, the edges the size-2 subsets (sorted), the flags the
// singletons, the hyperedges the larger subsets in set order, and each
// weight the weight of its vertex's fact.
TEST(ConflictGraph, MatchesDefinitionOnWideFactIds) {
  Rng rng(16);
  auto weight = [](FactId id) { return 1.0 + id % 7; };
  for (const FactId bound : {FactId{1} << 8, FactId{1} << 17,
                             FactId{1} << 25, FactId{0xFFFFFFF0}}) {
    for (int trial = 0; trial < 4; ++trial) {
      SCOPED_TRACE("bound " + std::to_string(bound) + " trial " +
                   std::to_string(trial));
      // A few hundred facts, so that the sets repeat facts across subsets.
      std::vector<FactId> pool;
      for (size_t i = 0; i < 300; ++i) {
        pool.push_back(static_cast<FactId>(rng.UniformIndex(bound)));
      }
      std::set<std::vector<FactId>> seen;
      ViolationSet violations;
      std::vector<std::vector<FactId>> subsets;
      for (size_t i = 0; i < 40 + 200 * static_cast<size_t>(trial); ++i) {
        std::vector<FactId> subset;
        const size_t size = 1 + rng.UniformIndex(i % 3 == 0 ? 4 : 2);
        while (subset.size() < size) {
          subset.push_back(pool[rng.UniformIndex(pool.size())]);
          std::sort(subset.begin(), subset.end());
          subset.erase(std::unique(subset.begin(), subset.end()),
                       subset.end());
        }
        if (!seen.insert(subset).second) continue;
        violations.Add(subset.data(), subset.data() + subset.size());
        subsets.push_back(subset);
      }
      const ConflictGraph graph = ConflictGraph::Build(violations, weight);

      std::vector<FactId> vertices;
      for (const auto& subset : subsets) {
        vertices.insert(vertices.end(), subset.begin(), subset.end());
      }
      std::sort(vertices.begin(), vertices.end());
      vertices.erase(std::unique(vertices.begin(), vertices.end()),
                     vertices.end());
      auto v = [&](FactId id) {
        return static_cast<uint32_t>(
            std::lower_bound(vertices.begin(), vertices.end(), id) -
            vertices.begin());
      };
      std::vector<std::pair<uint32_t, uint32_t>> edges;
      std::vector<bool> flags(vertices.size(), false);
      std::vector<std::vector<uint32_t>> hyperedges;
      for (const auto& subset : subsets) {
        if (subset.size() == 1) flags[v(subset[0])] = true;
        if (subset.size() == 2) edges.emplace_back(v(subset[0]), v(subset[1]));
        if (subset.size() < 3) continue;
        hyperedges.emplace_back();
        for (const FactId id : subset) hyperedges.back().push_back(v(id));
      }
      std::sort(edges.begin(), edges.end());

      ASSERT_EQ(graph.num_vertices(), vertices.size());
      for (uint32_t u = 0; u < graph.num_vertices(); ++u) {
        EXPECT_EQ(graph.fact_of(u), vertices[u]);
        EXPECT_EQ(graph.vertex_of(vertices[u]), u);
        EXPECT_EQ(graph.weights()[u], weight(vertices[u]));
      }
      EXPECT_EQ(graph.graph().num_vertices(), vertices.size());
      EXPECT_EQ(graph.graph().edges(), edges);
      EXPECT_EQ(graph.self_inconsistent(), flags);
      EXPECT_EQ(graph.num_self_inconsistent(),
                static_cast<size_t>(std::count(flags.begin(), flags.end(),
                                               true)));
      EXPECT_EQ(graph.hyperedges(), hyperedges);
    }
  }
}

// ---- ViolationSet ----

// The flat layout reads back what Add appended: each subset, its
// multiplicity and the violation count; equality compares all of them in
// order.
TEST(ViolationSet, FlatLayoutReadsBackInAddOrder) {
  ViolationSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_FALSE(set.begin() != set.end());
  set.Add({4, 9}, 2);
  set.Add({7});
  set.Add({1, 2, 3}, 3);
  ASSERT_EQ(set.num_minimal_subsets(), 3u);
  EXPECT_EQ(testing::Subsets(set),
            (std::vector<std::vector<FactId>>{{4, 9}, {7}, {1, 2, 3}}));
  EXPECT_EQ(set.subset(2).size, 3u);
  EXPECT_EQ(set.subset(1).front(), 7u);
  EXPECT_EQ(set.facts(), (std::vector<FactId>{4, 9, 7, 1, 2, 3}));
  EXPECT_EQ(set.multiplicities(), (std::vector<uint32_t>{2, 1, 3}));
  EXPECT_EQ(set.num_minimal_violations(), 6u);
  EXPECT_EQ(set.ProblematicFacts(), (std::vector<FactId>{1, 2, 3, 4, 7, 9}));
  EXPECT_EQ(set.SelfInconsistentFacts(), (std::vector<FactId>{7}));
  EXPECT_EQ(set.MaxSubsetSize(), 3u);

  ViolationSet copy = set;
  EXPECT_TRUE(copy == set);
  copy.Add({5, 6});
  EXPECT_FALSE(copy == set);
  ViolationSet reweighed;
  reweighed.Add({4, 9}, 1);
  reweighed.Add({7});
  reweighed.Add({1, 2, 3}, 3);
  EXPECT_FALSE(reweighed == set);
  EXPECT_TRUE(ViolationSet() == ViolationSet());
}

// Add keeps its checks: a subset is non-empty and sorted.
TEST(ViolationSetDeathTest, AddRejectsEmptyAndUnsortedSubsets) {
  ViolationSet set;
  EXPECT_DEATH(set.Add({}), "first != last");
  EXPECT_DEATH(set.Add({3, 1}), "is_sorted");
  set.Add({1, 3});
  EXPECT_EQ(set.num_minimal_subsets(), 1u);
}

}  // namespace
}  // namespace dbim
