// Randomized postulate fuzzing: every registry measure is checked against
// the paper's Table 2 ground truth (FD columns) on random databases, and
// the incremental violation index is cross-checked against fresh detection
// after every operation of random mutation sequences. The property
// checkers search for counterexamples, so assertions only go one way: a
// property the paper PROVES must hold on every instance is asserted to
// hold on random ones too; a property the paper refutes needs a crafted
// counterexample (properties_test.cc) — a random miss proves nothing.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "measures/basic_measures.h"
#include "measures/registry.h"
#include "properties/known_table.h"
#include "properties/property_check.h"
#include "relational/operations.h"
#include "relational/repair_system.h"
#include "test_util.h"
#include "violations/detector.h"
#include "violations/incremental.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

// The fuzz runs detection multi-threaded throughout: by the deterministic-
// merge guarantee (see parallel_detector_test.cc) this cannot change any
// verdict, and it drags every property-check path through the sharded
// probe phase.
DetectorOptions FuzzDetectorOptions() {
  DetectorOptions options;
  options.num_threads = 4;
  return options;
}

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

// Random corpus: small enough that the #P-hard MC measures stay cheap,
// varied enough (domain 2 vs 6) to cover dense and sparse conflicts. Every
// corpus deliberately contains at least one consistent database (positivity
// is an iff: I = 0 must hold there).
std::vector<Database> RandomCorpus(std::shared_ptr<const Schema> schema,
                                   uint64_t seed) {
  std::vector<Database> corpus;
  corpus.push_back(MakeRandomDatabase(schema, 0, 10, 2, seed));
  corpus.push_back(MakeRandomDatabase(schema, 0, 12, 6, seed + 1));
  corpus.push_back(MakeRandomDatabase(schema, 0, 8, 4, seed + 2));
  corpus.push_back(Database(schema));  // empty, trivially consistent
  return corpus;
}

class PostulateFuzz : public ::testing::TestWithParam<int> {};

// Positivity holds for every measure under FDs (Table 2, first column) —
// on any instance, so on random ones.
TEST_P(PostulateFuzz, PositivityMatchesTable2) {
  const auto schema = MakeAbcSchema();
  const ViolationDetector detector(schema, AbcFds(*schema),
                                   FuzzDetectorOptions());
  const auto corpus = RandomCorpus(schema, GetParam() * 101 + 7);
  for (const auto& measure : CreateMeasures()) {
    const auto profile = FindProfile(measure->name());
    ASSERT_TRUE(profile.has_value()) << measure->name();
    ASSERT_TRUE(profile->positivity_fd);
    const auto result = CheckPositivity(*measure, detector, corpus);
    EXPECT_TRUE(result.satisfied)
        << measure->name() << ": " << result.counterexample;
    EXPECT_EQ(result.cases_checked, corpus.size());
  }
}

// Monotonicity under FD strengthening, asserted exactly for the measures
// whose Table 2 FD entry is true (all but I_MC). For I_MC the entry is
// false; random search is not guaranteed to hit the crafted
// counterexample, so no assertion either way.
TEST_P(PostulateFuzz, MonotonicityMatchesTable2) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const ViolationDetector weaker(schema, {dcs[0]}, FuzzDetectorOptions());
  const ViolationDetector stronger(schema, dcs, FuzzDetectorOptions());
  const auto corpus = RandomCorpus(schema, GetParam() * 211 + 3);
  for (const auto& measure : CreateMeasures()) {
    const auto profile = FindProfile(measure->name());
    ASSERT_TRUE(profile.has_value()) << measure->name();
    if (!profile->monotonicity_fd) continue;
    const auto result = CheckMonotonicity(*measure, weaker, stronger, corpus);
    EXPECT_TRUE(result.satisfied)
        << measure->name() << ": " << result.counterexample;
  }
}

// Progression under the subset repair system, asserted for the measures
// whose Table 2 FD entry is true (I_MI, I_P, I_R, I_lin_R): on every
// inconsistent database some deletion strictly decreases the measure.
TEST_P(PostulateFuzz, ProgressionMatchesTable2) {
  const auto schema = MakeAbcSchema();
  const ViolationDetector detector(schema, AbcFds(*schema),
                                   FuzzDetectorOptions());
  SubsetRepairSystem subset;
  const auto corpus = RandomCorpus(schema, GetParam() * 307 + 11);
  for (const auto& measure : CreateMeasures()) {
    const auto profile = FindProfile(measure->name());
    ASSERT_TRUE(profile.has_value()) << measure->name();
    if (!profile->progression_fd) continue;
    const auto result = CheckProgression(*measure, detector, subset, corpus);
    EXPECT_TRUE(result.satisfied)
        << measure->name() << ": " << result.counterexample;
  }
}

// Proposition 3, empirically: progression implies positivity. Checked for
// every measure on every random corpus — if the progression checker finds
// no counterexample, the positivity checker must not either.
TEST_P(PostulateFuzz, ProgressionImpliesPositivity) {
  const auto schema = MakeAbcSchema();
  const ViolationDetector detector(schema, AbcFds(*schema),
                                   FuzzDetectorOptions());
  SubsetRepairSystem subset;
  const auto corpus = RandomCorpus(schema, GetParam() * 401 + 23);
  for (const auto& measure : CreateMeasures()) {
    const auto progression =
        CheckProgression(*measure, detector, subset, corpus);
    if (progression.satisfied && progression.cases_checked > 0) {
      const auto positivity = CheckPositivity(*measure, detector, corpus);
      EXPECT_TRUE(positivity.satisfied)
          << measure->name() << ": " << positivity.counterexample;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PostulateFuzz, ::testing::Range(0, 6));

// ---- Incremental index vs fresh detection under mutation sequences ----

// Applies a random operation through the index and returns a description.
std::string ApplyRandomOp(IncrementalViolationIndex& index, RelationId rel,
                          Rng& rng, int64_t domain) {
  const std::vector<FactId> ids = index.db().ids();
  const size_t kind = ids.empty() ? 1 : rng.UniformIndex(4);
  if (kind == 0) {  // delete
    const FactId id = ids[rng.UniformIndex(ids.size())];
    index.Apply(RepairOperation::Deletion(id));
    return "delete #" + std::to_string(id);
  }
  if (kind == 1) {  // insert a fresh random fact
    std::vector<Value> values;
    const size_t arity = index.db().schema().relation(rel).arity();
    for (size_t a = 0; a < arity; ++a) {
      values.emplace_back(rng.UniformInt(0, domain - 1));
    }
    index.Apply(RepairOperation::Insertion(Fact(rel, std::move(values))));
    return "insert";
  }
  if (kind == 2) {  // duplicate an existing fact (distinct id, equal cells)
    const FactId id = ids[rng.UniformIndex(ids.size())];
    index.Apply(RepairOperation::Insertion(index.db().fact(id)));
    return "duplicate #" + std::to_string(id);
  }
  const FactId id = ids[rng.UniformIndex(ids.size())];  // update
  const AttrIndex attr = static_cast<AttrIndex>(rng.UniformIndex(
      index.db().schema().relation(rel).arity()));
  const Value value(rng.UniformInt(0, domain - 1));
  index.Apply(RepairOperation::Update(id, attr, value));
  return "update #" + std::to_string(id) + "." + std::to_string(attr);
}

class IncrementalFuzz : public ::testing::TestWithParam<int> {};

// After every operation of a random mutation sequence, the incremental
// index must agree with fresh (multi-threaded) detection: subset count,
// problematic-fact count, consistency verdict, and snapshot contents. The
// unary constraint forces self-inconsistency transitions, the FDs pair
// churn; I_MI and I_P are also cross-checked as measures on the snapshot.
TEST_P(IncrementalFuzz, IndexAgreesWithFreshDetectionAfterEveryOp) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  const int64_t domain = 3 + GetParam() % 3;
  const Database start =
      MakeRandomDatabase(schema, 0, 25, domain, GetParam() * 977 + 5);
  IncrementalViolationIndex index(schema, dcs, start);
  const ViolationDetector fresh(schema, dcs, FuzzDetectorOptions());
  MiCountMeasure mi;
  ProblematicFactsMeasure ip;
  Rng rng(GetParam() * 31 + 17);

  for (int step = 0; step < 40; ++step) {
    const std::string op = ApplyRandomOp(index, 0, rng, domain);
    const std::string where =
        "seed " + std::to_string(GetParam()) + " step " +
        std::to_string(step) + " (" + op + ")";
    const ViolationSet expected = fresh.FindViolations(index.db());
    EXPECT_EQ(index.NumMinimalSubsets(), expected.num_minimal_subsets())
        << where;
    EXPECT_EQ(index.NumProblematicFacts(), expected.ProblematicFacts().size())
        << where;
    EXPECT_EQ(index.IsConsistent(), expected.empty()) << where;
    EXPECT_EQ(testing::SortedSubsets(index.Snapshot()),
              testing::SortedSubsets(expected))
        << where;
    // The counting measures evaluated on a fresh context must equal the
    // index's O(1) counters.
    EXPECT_EQ(mi.EvaluateFresh(fresh, index.db()),
              static_cast<double>(index.NumMinimalSubsets()))
        << where;
    EXPECT_EQ(ip.EvaluateFresh(fresh, index.db()),
              static_cast<double>(index.NumProblematicFacts()))
        << where;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalFuzz, ::testing::Range(0, 8));

}  // namespace
}  // namespace dbim
