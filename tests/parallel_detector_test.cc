// Randomized parity suite for the sharded violation detector: for every
// thread count the detection result must be bit-identical — the subsets
// list order included — to the single-threaded path. This is the
// enforcement arm of the deterministic-merge guarantee in
// DetectorOptions::num_threads; any scheduling-dependent ordering or
// deduplication decision shows up here as a diff.
#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/value.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/session.h"
#include "properties/constructions.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

using testing::ExpectMatchesOracle;
using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

const size_t kThreadCounts[] = {1, 2, 4, 8};

// Full observable state of a ViolationSet, order and per-subset
// multiplicities included.
void ExpectIdentical(const ViolationSet& expected, const ViolationSet& actual,
                     const std::string& where) {
  EXPECT_EQ(testing::Subsets(expected), testing::Subsets(actual)) << where;
  EXPECT_EQ(expected.multiplicities(), actual.multiplicities()) << where;
  EXPECT_EQ(expected.num_minimal_violations(),
            actual.num_minimal_violations())
      << where;
  EXPECT_EQ(expected.SelfInconsistentFacts(), actual.SelfInconsistentFacts())
      << where;
  EXPECT_EQ(expected.ProblematicFacts(), actual.ProblematicFacts()) << where;
}

// Runs FindViolations under every thread count and checks each result,
// and each constraint's counters, against the 1-thread reference. Returns
// the reference for further assertions.
ViolationSet CheckParity(std::shared_ptr<const Schema> schema,
                         const std::vector<DenialConstraint>& dcs,
                         const Database& db, const std::string& where,
                         const std::vector<size_t>& thread_counts = {
                             std::begin(kThreadCounts),
                             std::end(kThreadCounts)}) {
  const ViolationDetector reference(schema, dcs);
  ViolationSet expected = reference.FindViolations(db);
  std::vector<DetectorConstraintStats> expected_stats;
  for (size_t c = 0; c < dcs.size(); ++c) {
    expected_stats.push_back(reference.constraint_stats(c));
  }
  for (const size_t threads : thread_counts) {
    DetectorOptions options;
    options.num_threads = threads;
    const ViolationDetector detector(schema, dcs, options);
    ExpectIdentical(expected, detector.FindViolations(db),
                    where + " threads=" + std::to_string(threads));
    for (size_t c = 0; c < dcs.size(); ++c) {
      const DetectorConstraintStats stats = detector.constraint_stats(c);
      EXPECT_EQ(expected_stats[c].num_probes, stats.num_probes)
          << where << " probes c=" << c << " threads=" << threads;
      EXPECT_EQ(expected_stats[c].num_fires, stats.num_fires)
          << where << " fires c=" << c << " threads=" << threads;
    }
    EXPECT_EQ(reference.Satisfies(db), detector.Satisfies(db))
        << where << " Satisfies threads=" << threads;
  }
  return expected;
}

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

// A DC with no cross-variable equality: no blocking key, so the detector
// probes its one bucket through the order index.
std::vector<DenialConstraint> AbcKeyless(const Schema& schema) {
  return {*ParseDc(schema, 0, "!(t.A < t'.A & t.B > t'.B)")};
}

// Seeds x sizes x domains (noise level: small domains collide constantly,
// large domains rarely), over a keyed Sigma (pairwise bucket scan) and a
// keyless one (order-index probe); every result is also checked against
// the oracle.
TEST(ParallelParity, RandomizedFdSweep) {
  const auto schema = MakeAbcSchema();
  for (const bool keyed : {true, false}) {
    const auto dcs = keyed ? AbcFds(*schema) : AbcKeyless(*schema);
    for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
      for (const size_t facts : {7u, 40u, 150u}) {
        for (const int64_t domain : {2, 5, 25}) {
          const Database db =
              MakeRandomDatabase(schema, 0, facts, domain, seed);
          const std::string where = "seed=" + std::to_string(seed) +
                                    " facts=" + std::to_string(facts) +
                                    " domain=" + std::to_string(domain) +
                                    " keyed=" + std::to_string(keyed);
          const ViolationSet expected =
              CheckParity(schema, dcs, db, where);
          SCOPED_TRACE(where);
          ExpectMatchesOracle(dcs, db, expected);
        }
      }
    }
  }
}

// Random binary order DCs (1-3 cross order predicates, every operator in
// both operand orientations, keyed and keyless, cross-attribute and
// cross-relation, mixed with `!=`, constants and same-variable predicates)
// on tie-heavy mixed-kind data, then random `!=` DCs (1-2 cross `!=`,
// keyed and keyless, sometimes beside one cross order predicate) on
// columns of every class shape the `!=` split distinguishes — all large
// enough to shard the probe: every thread count reproduces the sequential
// result and counters in order, the result is the oracle's, and Satisfies
// agrees with it.
TEST(ParallelParity, OrderDcFuzz) {
  const auto schema = testing::MakeRsSchema();
  Rng rng(77);
  for (int trial = 0; trial < 24; ++trial) {
    const size_t num_order = 1 + trial % 3;
    const RelationId r1 = (trial / 3) % 2 == 0 ? 0 : 1;
    std::vector<DenialConstraint> dcs = {
        testing::RandomOrderDc(rng, *schema, 0, r1, num_order)};
    const size_t second_order = 1 + rng.UniformIndex(3);
    dcs.push_back(testing::RandomOrderDc(rng, *schema, r1, 0, second_order));
    const size_t facts = 150 + rng.UniformIndex(60);
    const Database db = testing::MakeMixedDatabase(
        schema, facts, trial % 2 == 0 ? 3 : 12, rng.UniformIndex(1 << 30));
    std::string where = "trial " + std::to_string(trial) + ":";
    for (const DenialConstraint& dc : dcs) where += " " + dc.ToString(*schema);
    const ViolationSet expected = CheckParity(schema, dcs, db, where);
    SCOPED_TRACE(where);
    ExpectMatchesOracle(dcs, db, expected);
    EXPECT_EQ(ViolationDetector(schema, dcs).Satisfies(db), expected.empty());
  }
  for (int trial = 0; trial < 24; ++trial) {
    const RelationId r1 = trial % 2 == 0 ? 0 : 1;
    std::vector<DenialConstraint> dcs = {testing::RandomNeDc(
        rng, *schema, 0, r1, 1 + (trial / 2) % 2, trial % 5 == 0)};
    dcs.push_back(testing::RandomNeDc(rng, *schema, r1, 0, 1, false));
    const size_t facts = 150 + rng.UniformIndex(60);
    const Database db =
        testing::MakeSkewedDatabase(schema, facts, rng.UniformIndex(1 << 30));
    std::string where = "ne trial " + std::to_string(trial) + ":";
    for (const DenialConstraint& dc : dcs) where += " " + dc.ToString(*schema);
    const ViolationSet expected = CheckParity(schema, dcs, db, where);
    SCOPED_TRACE(where);
    ExpectMatchesOracle(dcs, db, expected);
    EXPECT_EQ(ViolationDetector(schema, dcs).Satisfies(db), expected.empty());
  }
}

// Every bucket shape bucket-major detection treats apart (see
// MakeBucketShapesDatabase and BucketShapeDcs), with buckets large enough
// that stolen ranges split them and span several of them and several
// constraints: every thread count reproduces the sequential result and
// counters in order, each constraint alone and all together, and the
// result is the oracle's.
TEST(ParallelParity, BucketShapes) {
  const auto schema = testing::MakeRsSchema();
  const std::vector<DenialConstraint> all = testing::BucketShapeDcs(*schema);
  for (const size_t scale : {40u, 130u}) {
    const Database db = testing::MakeBucketShapesDatabase(schema, scale, 5);
    for (size_t c = 0; c <= all.size(); ++c) {
      const std::vector<DenialConstraint> dcs =
          c == all.size() ? all : std::vector<DenialConstraint>{all[c]};
      const std::string where =
          "scale=" + std::to_string(scale) + " constraint=" +
          (c == all.size() ? std::string("all") : std::to_string(c));
      const ViolationSet expected = CheckParity(schema, dcs, db, where);
      SCOPED_TRACE(where);
      ExpectMatchesOracle(dcs, db, expected);
    }
  }
}

// Unary constraints produce self-inconsistent facts, which both gate the
// pair phase (minimality) and exercise the singleton ordering.
TEST(ParallelParity, SelfInconsistentFacts) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Database db = MakeRandomDatabase(schema, 0, 60, 4, seed);
    CheckParity(schema, dcs, db,
                "self-inconsistent seed=" + std::to_string(seed));
  }
}

// K-ary (here 3-ary and 4-ary) constraints run through the sequential
// enumeration + minimality filter, which must interleave deterministically
// with the sharded binary phase.
TEST(ParallelParity, KAryConstraints) {
  for (const size_t k : {3u, 4u}) {
    const auto inst = MakeCardinalityDcInstance(9, k);
    const ViolationSet expected =
        CheckParity(inst.schema, {inst.at_most_k_minus_1}, inst.db,
                    "cardinality k=" + std::to_string(k));
    EXPECT_FALSE(expected.empty());
  }
}

// Paper datasets after noise: realistic schemas, mixed predicate shapes
// (equalities, disequalities, order comparisons, constants).
TEST(ParallelParity, NoisyPaperDatasets) {
  Rng rng(99);
  for (const DatasetId id : AllDatasets()) {
    const Dataset dataset = MakeDataset(id, 80, 7);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng run = rng.Fork();
    for (int i = 0; i < 25; ++i) noise.Step(db, run);
    CheckParity(dataset.schema, dataset.constraints, db,
                std::string("dataset ") + DatasetName(id));
  }
}

// num_threads = 0 resolves to the hardware thread count and must agree
// with the explicit counts.
TEST(ParallelParity, AutoThreadCount) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = MakeRandomDatabase(schema, 0, 70, 4, 55);
  DetectorOptions sequential;
  const ViolationDetector reference(schema, dcs, sequential);
  DetectorOptions automatic;
  automatic.num_threads = 0;
  const ViolationDetector detector(schema, dcs, automatic);
  ExpectIdentical(reference.FindViolations(db), detector.FindViolations(db),
                  "auto threads");
}

// End-to-end: identical BatchReports from MeasureSession::EvaluateOne for
// every thread count. Measure values must match bit-for-bit (same
// violations in, same arithmetic out); timings are ignored.
TEST(ParallelParity, EvaluateOneBatchReports) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = MakeRandomDatabase(schema, 0, 100, 4, 77);
  SessionOptions options;
  options.registry.include_mc = false;
  const MeasureSession reference(schema, dcs, options);
  const BatchReport expected = reference.EvaluateOne(db);
  for (const size_t threads : kThreadCounts) {
    options.detector.num_threads = threads;
    const MeasureSession session(schema, dcs, options);
    const BatchReport report = session.EvaluateOne(db);
    const std::string where = "threads=" + std::to_string(threads);
    EXPECT_EQ(expected.num_minimal_subsets, report.num_minimal_subsets)
        << where;
    ASSERT_EQ(expected.measures.size(), report.measures.size()) << where;
    for (size_t m = 0; m < expected.measures.size(); ++m) {
      EXPECT_EQ(expected.measures[m].name, report.measures[m].name) << where;
      EXPECT_EQ(expected.measures[m].value, report.measures[m].value)
          << where << " measure " << expected.measures[m].name;
    }
  }
}

// Large enough that each constraint's probe rows split into several
// stolen ranges (>= 2 ranges of >= 64 rows): the pass-1 scan, the
// per-constraint index build and the probe run in parallel and must still
// merge to the sequential result, including the bucket j-order the
// probe's discovery order depends on.
TEST(ParallelParity, ShardedBucketBuildAndPassOne) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));  // unary: pass 1 work
  std::vector<DenialConstraint> keyless = AbcKeyless(*schema);
  keyless.push_back(dcs.back());
  for (const uint64_t seed : {101u, 102u}) {
    for (const int64_t domain : {3, 12}) {
      const Database db = MakeRandomDatabase(schema, 0, 400, domain, seed);
      for (const auto* sigma : {&dcs, &keyless}) {
        const std::string where =
            "sharded-build seed=" + std::to_string(seed) +
            " domain=" + std::to_string(domain) +
            " keyed=" + std::to_string(sigma == &dcs);
        const ViolationSet expected =
            CheckParity(schema, *sigma, db, where);
        EXPECT_FALSE(expected.empty());
        EXPECT_FALSE(expected.SelfInconsistentFacts().empty());
        SCOPED_TRACE(where);
        ExpectMatchesOracle(*sigma, db, expected);
      }
    }
  }
}

// The probe runs over the concatenated probe rows of every binary and
// k-ary constraint. Here every relation holds fewer rows than the 64-row
// probe grain, so one stolen range covers several constraints of mixed
// shapes: unary DCs on both relations (self-inconsistent facts), FDs on
// both, a keyless order DC, a keyed cross-relation order DC and a 3-ary
// DC. Each range must still map onto the right per-constraint rows, and
// the merge must reproduce the sequential subsets, their order, the
// rederivations, the counters and Satisfies at every thread count.
TEST(ParallelParity, StolenRangesSpanConstraints) {
  const auto schema = testing::MakeRsSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B & t.B < t.C)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(*schema, 0, "!(t.C < t'.C & t.D > t'.D)"));
  std::vector<Predicate> cross;
  cross.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  cross.emplace_back(Operand{0, 1}, CompareOp::kLt, Operand{1, 2});
  dcs.emplace_back(std::vector<RelationId>{0, 1}, std::move(cross));
  dcs.push_back(*ParseDc(*schema, 1, "!(t.C > t.D)"));
  dcs.push_back(*ParseDc(*schema, 1, "!(t.B = t'.B & t.C != t'.C)"));
  std::vector<Predicate> chain;
  chain.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  chain.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  chain.emplace_back(Operand{0, 3}, CompareOp::kNe, Operand{2, 3});
  dcs.emplace_back(std::vector<RelationId>(3, 0), std::move(chain));
  for (const uint64_t seed : {21u, 22u, 23u, 24u, 25u}) {
    const Database db = testing::MakeMixedDatabase(schema, 40, 4, seed);
    const std::string where = "spanning seed=" + std::to_string(seed);
    const ViolationSet expected =
        CheckParity(schema, dcs, db, where, {1, 2, 3, 8});
    EXPECT_FALSE(expected.SelfInconsistentFacts().empty()) << where;
    EXPECT_GT(expected.num_minimal_subsets(),
              expected.SelfInconsistentFacts().size())
        << where;
    SCOPED_TRACE(where);
    ExpectMatchesOracle(dcs, db, expected);
  }
}

// K-ary enumeration sharded over outermost-variable row ranges: a 3-ary DC
// with enough rows to split into multiple chunks. The support sets
// (including size-2 supports from repeated facts across variables, which
// exercise the minimality filter) must come out in the sequential
// discovery order for every thread count.
TEST(ParallelParity, ShardedKAryEnumeration) {
  const auto schema = MakeAbcSchema();
  // !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C)
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  for (const uint64_t seed : {7u, 8u}) {
    const Database db = MakeRandomDatabase(schema, 0, 150, 30, seed);
    const ViolationSet expected = CheckParity(
        schema, {dc}, db, "sharded k-ary seed=" + std::to_string(seed));
    EXPECT_FALSE(expected.empty());
  }
}

// Cross-relation probe sharding: t ranges over R, t' over S, 1500 rows
// each, so the keyed DC's bucket scan and the keyless DC's order-index
// probe both split into many stolen sub-ranges. On the base instance R's A
// never equals nor exceeds S's A, so both results are empty; five extra S
// facts (A = 0, 3, ..., 12; B = -1) then create exactly the witnesses the
// construction predicts, for every thread count.
TEST(ParallelParity, ShardedCrossRelationProbe) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});
  const RelationId s = schema->AddRelation("S", {"A", "B"});
  Database db(schema);
  for (int64_t i = 0; i < 1500; ++i) {
    db.Insert(Fact(r, {Value(i), Value(i)}));
    db.Insert(Fact(s, {Value(i + 1000000), Value(i)}));
  }
  std::vector<Predicate> keyed_preds;
  keyed_preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  keyed_preds.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
  std::vector<Predicate> keyless_preds;
  keyless_preds.emplace_back(Operand{0, 0}, CompareOp::kGt, Operand{1, 0});
  keyless_preds.emplace_back(Operand{0, 1}, CompareOp::kNe, Operand{1, 1});
  const DenialConstraint keyed({r, s}, std::move(keyed_preds));
  const DenialConstraint keyless({r, s}, std::move(keyless_preds));

  for (const DenialConstraint* dc : {&keyed, &keyless}) {
    const std::string shape = dc == &keyed ? "keyed" : "keyless";
    EXPECT_TRUE(CheckParity(schema, {*dc}, db, "cross-relation " + shape)
                    .empty());
  }

  Database dirty = db;
  for (int64_t a = 0; a <= 12; a += 3) {
    dirty.Insert(Fact(s, {Value(a), Value(int64_t{-1})}));
  }
  // Keyed: each extra S fact clashes with the one R fact sharing its A.
  EXPECT_EQ(CheckParity(schema, {keyed}, dirty, "cross-relation keyed dirty")
                .num_minimal_subsets(),
            5u);
  // Keyless: each extra S fact with A = a pairs with the R facts whose A
  // exceeds a: sum over a of (1499 - a) = 5 * 1499 - 30.
  EXPECT_EQ(
      CheckParity(schema, {keyless}, dirty, "cross-relation keyless dirty")
          .num_minimal_subsets(),
      5u * 1499u - 30u);
}

// A pass-1 scan that finds nothing: a unary constraint whose body never
// holds keeps its scan task busy over 1500 rows (FDs are
// TriviallyNotUnary and skipped) without yielding a single self-
// inconsistent fact; the scan and the sharded probe after it must still
// match the sequential result for every thread count.
TEST(ParallelParity, ShardedBarrenPassOneScan) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.A)"));
  const Database db = MakeRandomDatabase(schema, 0, 1500, 100000, 5);
  const ViolationSet expected =
      CheckParity(schema, dcs, db, "barren pass-1 scan");
  EXPECT_TRUE(expected.SelfInconsistentFacts().empty());
  // The unary constraint adds nothing: same result as the FDs alone.
  const ViolationDetector fds(schema, AbcFds(*schema));
  ExpectIdentical(fds.FindViolations(db), expected, "barren vs FDs alone");
}

// K-ary inner loops: no predicate gates the outermost level of
// !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C), so every (i0, i1) node is
// visited and each outer row fans out into O(n^2) inner work. The
// sharded enumeration must match the sequential one for every thread
// count, and a body whose never-true predicate sits at the deepest
// variable (t2.C < t2.C) runs the inner loops in full for an empty
// result.
TEST(ParallelParity, ShardedKAryInnerLoops) {
  const auto schema = MakeAbcSchema();
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  const Database db = MakeRandomDatabase(schema, 0, 150, 30, 19);
  EXPECT_FALSE(CheckParity(schema, {dc}, db, "k-ary inner loops").empty());

  std::vector<Predicate> barren;
  barren.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  barren.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  barren.emplace_back(Operand{2, 2}, CompareOp::kLt, Operand{2, 2});
  const DenialConstraint never(std::vector<RelationId>(3, 0),
                               std::move(barren));
  EXPECT_TRUE(CheckParity(schema, {never}, db, "k-ary barren").empty());
}

// Concurrent measure evaluation is behind SessionOptions::
// parallel_measures: every measure is a pure function of the shared
// materialized context, so the BatchReport (names, order, values,
// detection metadata — timings excluded) must equal the sequential one
// bit for bit. Fuzzed over noisy paper datasets crossed with detector
// thread counts, so parallel measures stack on parallel detection.
TEST(ParallelParity, EvaluateOneParallelMeasuresFuzz) {
  Rng rng(1234);
  for (const DatasetId id : AllDatasets()) {
    const Dataset dataset = MakeDataset(id, 80, 11);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng run = rng.Fork();
    for (int i = 0; i < 25; ++i) noise.Step(db, run);

    SessionOptions options;
    options.registry.include_mc = false;
    options.parallel_measures = false;
    options.detector.num_threads = 1;
    const MeasureSession reference(dataset.schema, dataset.constraints,
                                   options);
    const BatchReport expected = reference.EvaluateOne(db);
    for (const size_t threads : {1u, 4u}) {
      options.parallel_measures = true;
      options.detector.num_threads = threads;
      const MeasureSession session(dataset.schema, dataset.constraints,
                                   options);
      const BatchReport report = session.EvaluateOne(db);
      const std::string where = std::string("dataset ") + DatasetName(id) +
                                " detector-threads=" + std::to_string(threads);
      EXPECT_EQ(expected.num_minimal_subsets, report.num_minimal_subsets)
          << where;
      ASSERT_EQ(expected.measures.size(), report.measures.size()) << where;
      for (size_t m = 0; m < expected.measures.size(); ++m) {
        EXPECT_EQ(expected.measures[m].name, report.measures[m].name) << where;
        EXPECT_EQ(expected.measures[m].value, report.measures[m].value)
            << where << " measure " << expected.measures[m].name;
      }
    }
  }
}

// ---- OrderedStealingFor: the one scheduler entry point, under every
// detector phase and the session's measure fan-out.

// Nested fan-out at grain 1 (the shape of parallel measures triggering
// parallel detection): a compute that itself runs an OrderedStealingFor.
// The consumer helps execute unclaimed ranges, so this completes even when
// every pool worker is occupied by an outer range; without helping it
// could deadlock on a saturated pool.
TEST(OrderedStealingForTest, NestedFanOutCompletes) {
  std::vector<size_t> outer_sums(8, 0);
  size_t consumed = 0;
  OrderedStealingFor(
      4, outer_sums.size(), 1,
      [&](IndexRange outer) {
        for (size_t c = outer.begin; c < outer.end; ++c) {
          std::vector<size_t> inner(16, 0);
          OrderedStealingFor(
              4, inner.size(), 1,
              [&](IndexRange r) {
                for (size_t i = r.begin; i < r.end; ++i) inner[i] = i + 1;
              },
              [&](IndexRange r) {
                for (size_t i = r.begin; i < r.end; ++i) {
                  outer_sums[c] += inner[i];
                }
              });
        }
      },
      [&](IndexRange outer) {
        for (size_t c = outer.begin; c < outer.end; ++c) {
          EXPECT_EQ(outer_sums[c], 136u);  // 1 + ... + 16
          ++consumed;
        }
      });
  EXPECT_EQ(consumed, outer_sums.size());
}

// Claimed sub-ranges must be consumed as contiguous ascending coverage of
// [0, n) — whatever the workers stole — and every index's compute must
// happen-before its consume.
TEST(OrderedStealingForTest, CoversRangeInAscendingOrder) {
  for (const size_t threads : kThreadCounts) {
    for (const size_t n : {0u, 1u, 5u, 64u, 257u, 1000u}) {
      for (const size_t grain : {1u, 7u, 64u}) {
        std::vector<size_t> computed(n, 0);
        size_t cursor = 0;
        OrderedStealingFor(
            threads, n, grain,
            [&](IndexRange r) {
              for (size_t i = r.begin; i < r.end; ++i) computed[i] = i + 1;
            },
            [&](IndexRange r) {
              EXPECT_EQ(r.begin, cursor);  // contiguous, ascending
              EXPECT_LT(r.begin, r.end);
              for (size_t i = r.begin; i < r.end; ++i) {
                EXPECT_EQ(computed[i], i + 1);
              }
              cursor = r.end;
            });
        EXPECT_EQ(cursor, n)
            << "threads=" << threads << " n=" << n << " grain=" << grain;
      }
    }
  }
}

// Skewed cost adversary: index 0 costs ~1000x the rest. A static split
// would serialize behind the fat chunk's owner; stealing must still cover
// everything, keep the canonical order, and compute each index exactly
// once (atomic counters catch double execution by racing stealers).
TEST(OrderedStealingForTest, SkewedCostComputesEachIndexOnce) {
  for (const size_t threads : kThreadCounts) {
    constexpr size_t kN = 300;
    std::vector<std::atomic<int>> times_computed(kN);
    for (auto& c : times_computed) c.store(0);
    // Defeats dead-code elimination; atomic because every worker stores.
    std::atomic<uint64_t> sink{0};
    size_t cursor = 0;
    OrderedStealingFor(
        threads, kN, 4,
        [&](IndexRange r) {
          for (size_t i = r.begin; i < r.end; ++i) {
            const size_t spin = i == 0 ? 2000000 : 2000;
            uint64_t acc = 0;
            for (size_t s = 0; s < spin; ++s) acc += s * 2654435761u;
            sink.store(acc, std::memory_order_relaxed);
            times_computed[i].fetch_add(1);
          }
        },
        [&](IndexRange r) {
          EXPECT_EQ(r.begin, cursor);
          cursor = r.end;
        });
    EXPECT_EQ(cursor, kN);
    for (size_t i = 0; i < kN; ++i) {
      EXPECT_EQ(times_computed[i].load(), 1) << "index " << i;
    }
  }
}

// ---- Detector-level skew adversaries: one giant blocking bucket and a
// skewed k-ary outer loop — the workloads that serialized the old static
// chunking — must stay bit-identical across thread counts.

// 60% of rows share one blocking key, so one bucket dominates the probe.
TEST(ParallelParity, GiantHotBlockingBucket) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  Database db(schema);
  Rng rng(4242);
  for (size_t i = 0; i < 600; ++i) {
    const int64_t a = i % 5 < 3 ? 0 : rng.UniformInt(1, 40);
    db.Insert(Fact(0, {Value(a), Value(rng.UniformInt(0, 9)),
                       Value(rng.UniformInt(0, 999))}));
  }
  const ViolationSet expected =
      CheckParity(schema, dcs, db, "hot-bucket keyed");
  EXPECT_FALSE(expected.empty());
  const ViolationSet keyless =
      CheckParity(schema, AbcKeyless(*schema), db, "hot-bucket keyless");
  EXPECT_FALSE(keyless.empty());
}

// K-ary skew: the expensive inner enumeration fires only for outer rows in
// the hot group, clustered at the front of the row order — the worst case
// for equal-width outer chunks.
TEST(ParallelParity, SkewedKAryOuterRows) {
  const auto schema = MakeAbcSchema();
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  const DenialConstraint dc(std::vector<RelationId>(3, 0), std::move(preds));
  Database db(schema);
  Rng rng(777);
  for (size_t i = 0; i < 160; ++i) {
    // First quarter: one hot join key. Rest: near-unique keys.
    const int64_t a = i < 40 ? 0 : static_cast<int64_t>(1000 + i);
    db.Insert(Fact(0, {Value(a), Value(rng.UniformInt(0, 3)),
                       Value(rng.UniformInt(0, 50))}));
  }
  const ViolationSet expected =
      CheckParity(schema, {dc}, db, "skewed k-ary");
  EXPECT_FALSE(expected.empty());
}

}  // namespace
}  // namespace dbim
