// Robustness and exhaustiveness sweeps: complete pattern coverage of the
// EGD classifier, subset-monotonicity invariants of the measures under
// anti-monotonic constraints, detector failure injection (caps/deadlines),
// and solver edge cases.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "constraints/egd.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/registry.h"
#include "measures/basic_measures.h"
#include "measures/repair_measures.h"
#include "repair/egd_classifier.h"
#include "test_util.h"
#include "violations/detector.h"

namespace dbim {
namespace {

// ---- Exhaustive EGD pattern coverage ----

// Enumerates every variable pattern of two binary atoms (all functions
// from 4 positions to variable names, canonicalized) with every valid
// conclusion, asserting (a) classification never fails, (b) NP-hardness is
// exactly the path-pattern orbit, (c) tractable patterns solve and agree
// with the reference branch & bound on a fixed database.
TEST(EgdClassifierExhaustive, AllPatternsAllConclusions) {
  auto schema = std::make_shared<Schema>();
  const RelationId r = schema->AddRelation("R", {"A", "B"});

  // Fixed small database over a tiny domain.
  Database db(schema);
  Rng rng(12345);
  for (int i = 0; i < 7; ++i) {
    db.Insert(Fact(r, {Value(rng.UniformInt(0, 2)),
                       Value(rng.UniformInt(0, 2))}));
  }

  // Whether a canonical tuple is in the path orbit (atom swap and/or
  // simultaneous column flip of R(a,b),R(b,c)).
  auto is_path_orbit = [](const std::array<int, 4>& vars) {
    auto canon = [](std::array<int, 4> v) {
      std::array<int, 4> out{};
      int next = 0;
      int map[5] = {-1, -1, -1, -1, -1};
      for (int p = 0; p < 4; ++p) {
        if (map[v[p]] < 0) map[v[p]] = next++;
        out[p] = map[v[p]];
      }
      return out;
    };
    const std::array<int, 4> path = {0, 1, 1, 2};
    const std::array<std::array<int, 4>, 4> transforms = {{
        {0, 1, 2, 3}, {2, 3, 0, 1}, {1, 0, 3, 2}, {3, 2, 1, 0}}};
    for (const auto& perm : transforms) {
      std::array<int, 4> permuted{};
      for (int p = 0; p < 4; ++p) permuted[p] = vars[perm[p]];
      if (canon(permuted) == path) return true;
    }
    return false;
  };

  size_t total = 0;
  size_t hard = 0;
  // All var assignments with first-occurrence labels in {1..4}.
  for (int v0 = 1; v0 <= 1; ++v0) {
    for (int v1 = 1; v1 <= 2; ++v1) {
      for (int v2 = 1; v2 <= 3; ++v2) {
        for (int v3 = 1; v3 <= 4; ++v3) {
          const std::array<int, 4> vars = {v0, v1, v2, v3};
          std::vector<int> distinct;
          for (const int v : vars) {
            if (std::find(distinct.begin(), distinct.end(), v) ==
                distinct.end()) {
              distinct.push_back(v);
            }
          }
          if (distinct.size() < 2) continue;  // no non-vacuous conclusion
          for (size_t i = 0; i < distinct.size(); ++i) {
            for (size_t j = 0; j < distinct.size(); ++j) {
              if (i == j) continue;
              const BinaryAtomEgd egd(r, r, vars, distinct[i], distinct[j]);
              ++total;
              const EgdComplexity complexity = ClassifyEgd(egd);
              if (is_path_orbit(vars)) {
                EXPECT_EQ(complexity, EgdComplexity::kNpHard)
                    << egd.ToString(*schema);
                ++hard;
                EXPECT_FALSE(SolveTractableEgdRepair(egd, db).has_value());
              } else {
                EXPECT_EQ(complexity, EgdComplexity::kPolySameRelation)
                    << egd.ToString(*schema);
                const auto fast = SolveTractableEgdRepair(egd, db);
                ASSERT_TRUE(fast.has_value()) << egd.ToString(*schema);
                const ViolationDetector detector(schema,
                                                 {egd.ToDenialConstraint()});
                MinRepairMeasure reference;
                EXPECT_NEAR(*fast, reference.EvaluateFresh(detector, db),
                            1e-7)
                    << egd.ToString(*schema);
              }
            }
          }
        }
      }
    }
  }
  // 15 set partitions of 4 positions, minus the all-same one, with 2 to 12
  // ordered conclusions each; the loop must have covered them all.
  EXPECT_GE(total, 100u);  // all 14 multi-var patterns, every conclusion
  EXPECT_GT(hard, 0u);
}

// ---- Measure monotonicity in the database (anti-monotonic constraints) ----

class SubsetMonotonicitySweep : public ::testing::TestWithParam<int> {};

TEST_P(SubsetMonotonicitySweep, MeasuresGrowWithTheDatabase) {
  // For anti-monotonic constraints (DCs), removing facts cannot introduce
  // violations, so I_MI, I_P, I_R and I_lin_R are monotone under database
  // extension. (The paper deliberately does NOT postulate this for general
  // constraints — inclusion dependencies break it — but for DCs it is a
  // theorem and a strong implementation check.)
  auto schema = testing::MakeAbcSchema();
  const std::vector<FunctionalDependency> fds = {
      FunctionalDependency::Make(*schema, 0, {"A"}, {"B"}),
      FunctionalDependency::Make(*schema, 0, {"B"}, {"C"}),
  };
  const ViolationDetector detector(schema, ToDenialConstraints(fds));
  const Database big = testing::MakeRandomDatabase(schema, 0, 12, 3,
                                                   GetParam() * 271 + 9);
  Rng rng(GetParam());
  std::vector<FactId> ids = big.ids();
  std::shuffle(ids.begin(), ids.end(), rng.engine());
  ids.resize(ids.size() / 2);
  std::sort(ids.begin(), ids.end());
  const Database small = big.Restrict(ids);

  MiCountMeasure mi;
  ProblematicFactsMeasure ip;
  MinRepairMeasure repair;
  LinRepairMeasure lin;
  for (InconsistencyMeasure* m :
       std::initializer_list<InconsistencyMeasure*>{&mi, &ip, &repair,
                                                    &lin}) {
    EXPECT_LE(m->EvaluateFresh(detector, small),
              m->EvaluateFresh(detector, big) + 1e-9)
        << m->name();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomDatabases, SubsetMonotonicitySweep,
                         ::testing::Range(1, 21));

// ---- Failure injection on the detector ----

TEST(DetectorRobustness, MeasuresOnEmptyDatabase) {
  const auto example = testing::MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  Database empty(example.schema);
  for (const auto& measure : CreateMeasures()) {
    EXPECT_DOUBLE_EQ(measure->EvaluateFresh(detector, empty), 0.0)
        << measure->name();
  }
}

TEST(DetectorRobustness, SingleFactDatabase) {
  const auto example = testing::MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  const Database one = example.d1.Restrict({2});
  // One fact cannot violate an FD.
  EXPECT_TRUE(detector.Satisfies(one));
}

// ---- Measure context caching ----

TEST(MeasureContext, CachesDetectionAcrossMeasures) {
  const auto example = testing::MakeRunningExample();
  const ViolationDetector detector(example.schema, example.dcs);
  auto total_probes = [&] {
    uint64_t probes = 0;
    for (size_t c = 0; c < example.dcs.size(); ++c) {
      probes += detector.constraint_stats(c).num_probes;
    }
    return probes;
  };
  MeasureContext context(detector, example.d1);
  MiCountMeasure mi;
  ProblematicFactsMeasure ip;
  EXPECT_DOUBLE_EQ(mi.Evaluate(context), 7.0);
  const uint64_t after_first = total_probes();
  EXPECT_GT(after_first, 0u);
  // The second measure reads the cached violation set: no detection pass
  // runs, so the detector's probe counters do not move.
  EXPECT_DOUBLE_EQ(ip.Evaluate(context), 5.0);
  EXPECT_EQ(total_probes(), after_first);
  EXPECT_EQ(&context.violations(), &context.violations());
}

// ---- Drastic consistency cross-check over all datasets ----

TEST(DetectorRobustness, SatisfiesAgreesWithFindViolationsEverywhere) {
  for (const DatasetId id : AllDatasets()) {
    const Dataset dataset = MakeDataset(id, 120, 99);
    const ViolationDetector detector(dataset.schema, dataset.constraints);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng rng(5);
    for (int step = 0; step < 6; ++step) {
      EXPECT_EQ(detector.Satisfies(db),
                detector.FindViolations(db).empty())
          << DatasetName(id) << " step " << step;
      noise.Step(db, rng);
    }
  }
}

}  // namespace
}  // namespace dbim
