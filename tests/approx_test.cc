// Statistical harness for the sampling estimators (streaming/approx.h):
//  * coverage — across seeded corpora and sampling seeds, the exact
//    measure value falls inside [ci_low, ci_high] at least at the nominal
//    confidence rate (everything is seeded, so the assertion is exact and
//    rerun-stable, not flaky);
//  * determinism — estimates are bit-identical across detector thread
//    counts for a fixed seed, and across repeated calls;
//  * degeneracy — when the exact path runs (sample_fraction == 1.0: small
//    database, eps <= 0, or k-ary Sigma) the estimate reproduces the exact
//    measure value bit-for-bit.
//  * oracle — the sampled I_MI and I_P equal n * mean(g) over the drawn
//    sample, g recomputed from a full detection, bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "measures/session.h"
#include "streaming/approx.h"
#include "test_util.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

const char* const kEstimable[] = {"I_MI", "I_P", "I_R", "I_lin_R"};

// A corpus in the subcritical regime the repair estimators are built for
// (see approx.h): A and B drawn from a domain >> n makes key collisions
// birthday-rare, so violations are plentiful but the conflict graph
// decomposes into many small components — the exact I_R / I_lin_R
// reference stays cheap and the sampled-component solves stay tiny.
Database SparseCorpus(std::shared_ptr<const Schema> schema, size_t n,
                      int64_t key_domain, uint64_t seed) {
  Rng rng(seed);
  Database db(std::move(schema));
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.emplace_back(rng.UniformInt(0, key_domain - 1));  // A
    values.emplace_back(rng.UniformInt(0, key_domain - 1));  // B
    values.emplace_back(rng.UniformInt(0, 7));               // C
    db.Insert(Fact(0, std::move(values)));
  }
  return db;
}

// Exact reference values on the same (Sigma, D), via the ordinary one-shot
// path restricted to the estimable measures.
BatchReport ExactReport(const MeasureSession& session, const Database& db) {
  return session.EvaluateOne(db);
}

TEST(ApproxEvaluator, SampleSizeFollowsHoeffdingBound) {
  const auto schema = MakeAbcSchema();
  MeasureSession session(schema, AbcFds(*schema));
  ApproxEvaluator evaluator(session.detector(),
                            ApproxOptions().WithEps(0.1).WithConfidence(0.95));
  // ceil(ln(2 / 0.05) / (2 * 0.01)) = 185, clamped to n above and to
  // min_sample below.
  EXPECT_EQ(evaluator.SampleSize(10000), 185u);
  EXPECT_EQ(evaluator.SampleSize(100), 100u);
  EXPECT_EQ(evaluator.SampleSize(4), 4u);
}

// Coverage: with nominal confidence 0.95, the exact value must land in the
// reported interval at the nominal rate over many independent
// (corpus, sampling-seed) pairs, minus two binomial standard deviations of
// slack — 60 draws from a true-95% interval routinely land at 56/60, and
// demanding the point rate exactly would reject a correct estimator. All
// randomness is seeded: this is a fixed arithmetic fact about the
// implementation, asserted per measure.
TEST(ApproxEvaluator, CoverageAtLeastNominal) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  MeasureSession session(schema, dcs);
  size_t covered[4] = {0, 0, 0, 0};
  size_t total = 0;
  for (const uint64_t corpus_seed : {101u, 102u, 103u}) {
    // n = 600 >> m = 185, so real sampling happens; key domain 2000 keeps
    // the corpus subcritical: a few hundred violations in small components.
    const Database db = SparseCorpus(schema, 600, 2000, corpus_seed);
    const BatchReport exact = ExactReport(session, db);
    for (uint64_t sample_seed = 1; sample_seed <= 20; ++sample_seed) {
      ApproxEvaluator evaluator(
          session.detector(),
          ApproxOptions().WithEps(0.1).WithConfidence(0.95).WithSeed(
              sample_seed));
      const ApproxReport report = evaluator.Evaluate(db);
      EXPECT_FALSE(report.exact);
      EXPECT_LT(report.sample_size, report.num_facts);
      ++total;
      for (size_t m = 0; m < 4; ++m) {
        const MeasureResult* truth = exact.Find(kEstimable[m]);
        const ApproxEstimate* est = report.Find(kEstimable[m]);
        ASSERT_NE(truth, nullptr) << kEstimable[m];
        ASSERT_NE(est, nullptr) << kEstimable[m];
        EXPECT_LE(est->ci_low, est->ci_high);
        if (est->ci_low <= truth->value && truth->value <= est->ci_high) {
          ++covered[m];
        }
      }
    }
  }
  const double expected = 0.95 * static_cast<double>(total);
  const double slack =
      2.0 * std::sqrt(static_cast<double>(total) * 0.95 * 0.05);
  for (size_t m = 0; m < 4; ++m) {
    EXPECT_GE(static_cast<double>(covered[m]), expected - slack)
        << kEstimable[m] << " covered " << covered[m] << "/" << total;
  }
}

// Determinism: for a fixed sampling seed the whole report is bit-identical
// across detector thread counts and across repeated calls.
TEST(ApproxEvaluator, BitIdenticalAcrossThreadCounts) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database db = SparseCorpus(schema, 500, 1600, 7);
  std::vector<ApproxReport> reports;
  for (const size_t threads : {1u, 2u, 4u, 8u}) {
    MeasureSession session(schema, dcs,
                           SessionOptions().WithThreads(threads));
    ApproxEvaluator evaluator(session.detector(),
                              ApproxOptions().WithEps(0.1).WithSeed(99));
    reports.push_back(evaluator.Evaluate(db));
    // Same evaluator, same input: identical again.
    const ApproxReport again = evaluator.Evaluate(db);
    ASSERT_EQ(again.estimates.size(), reports.back().estimates.size());
    for (size_t m = 0; m < again.estimates.size(); ++m) {
      EXPECT_EQ(again.estimates[m].estimate,
                reports.back().estimates[m].estimate);
    }
  }
  for (size_t t = 1; t < reports.size(); ++t) {
    ASSERT_EQ(reports[t].sample_size, reports[0].sample_size);
    ASSERT_EQ(reports[t].estimates.size(), reports[0].estimates.size());
    for (size_t m = 0; m < reports[0].estimates.size(); ++m) {
      EXPECT_EQ(reports[t].estimates[m].name, reports[0].estimates[m].name);
      EXPECT_EQ(reports[t].estimates[m].estimate,
                reports[0].estimates[m].estimate)
          << reports[0].estimates[m].name << " at thread count index " << t;
      EXPECT_EQ(reports[t].estimates[m].ci_low, reports[0].estimates[m].ci_low);
      EXPECT_EQ(reports[t].estimates[m].ci_high,
                reports[0].estimates[m].ci_high);
    }
  }
}

// Exact fallback: a database no larger than the planned sample runs the
// ordinary measure code — sample_fraction 1.0 and bit-identical values.
TEST(ApproxEvaluator, SmallDatabaseReproducesExactBitForBit) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  MeasureSession session(schema, dcs);
  const Database db = MakeRandomDatabase(schema, 0, 40, 5, 3);
  const BatchReport exact = ExactReport(session, db);
  ApproxEvaluator evaluator(session.detector(), ApproxOptions().WithEps(0.1));
  const ApproxReport report = evaluator.Evaluate(db);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.sample_size, report.num_facts);
  for (const char* name : kEstimable) {
    const ApproxEstimate* est = report.Find(name);
    const MeasureResult* truth = exact.Find(name);
    ASSERT_NE(est, nullptr) << name;
    ASSERT_NE(truth, nullptr) << name;
    EXPECT_EQ(est->sample_fraction, 1.0) << name;
    EXPECT_EQ(est->estimate, truth->value) << name;
    EXPECT_EQ(est->ci_low, truth->value) << name;
    EXPECT_EQ(est->ci_high, truth->value) << name;
  }
}

// eps <= 0 forces the exact path regardless of size.
TEST(ApproxEvaluator, ZeroEpsForcesExactPath) {
  const auto schema = MakeAbcSchema();
  MeasureSession session(schema, AbcFds(*schema));
  const Database db = SparseCorpus(schema, 400, 1200, 9);
  ApproxEvaluator evaluator(session.detector(), ApproxOptions().WithEps(0.0));
  const ApproxReport report = evaluator.Evaluate(db);
  EXPECT_TRUE(report.exact);
  const BatchReport exact = ExactReport(session, db);
  for (const char* name : kEstimable) {
    EXPECT_EQ(report.Find(name)->estimate, exact.Find(name)->value) << name;
  }
}

// Sampler oracle: the sampled I_MI and I_P estimates are n * mean(g) over
// the very sample the estimator draws — a partial Fisher-Yates shuffle of
// db.ids() with Rng(seed) — with g read off one full detection: g(f) is
// 1 for a self-inconsistent fact and half its number of minimal pairs
// otherwise (I_MI), resp. whether f is problematic (I_P). The sum runs in
// sample order, as the estimator's does, so the estimates must agree bit
// for bit. Sigma spans every binary probe shape the estimator's partner
// lookup distinguishes: an FD, a keyless order DC, an asymmetric body
// (probed from both sides), a cross-relation DC, plus a unary DC for
// self-inconsistent facts; the cells include nulls and NaNs.
TEST(ApproxEvaluator, SampledEstimatesMatchDetectionOracle) {
  const auto schema = testing::MakeRsSchema();  // R, S over (A, B, C, D)
  auto parse = [&](const char* text) { return *ParseDc(*schema, 0, text); };
  std::vector<DenialConstraint> dcs;
  dcs.push_back(parse("!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(parse("!(t.C < t'.C & t.D > t'.D)"));
  dcs.push_back(parse("!(t.A = t'.A & t.B < t'.B & t.C > t'.C)"));
  {
    std::vector<Predicate> preds;  // t0 over R, t1 over S
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{0, 1}, CompareOp::kGt, Operand{1, 1});
    dcs.emplace_back(std::vector<RelationId>{0, 1}, std::move(preds));
  }
  dcs.push_back(parse("!(t.B = 2 & t.D < 30)"));
  MeasureSession session(schema, dcs);

  for (const uint64_t corpus_seed : {11u, 12u}) {
    // D tracks C but for a small shift on a few facts, so the keyless
    // order DC stays sparse; A collides in both relations and across
    // them. Nulls go to the key and `!=` columns A and B only (a null
    // sorts below every number, so one null C or D would conflict with
    // half the facts), NaNs to every column (a NaN orders against
    // nothing).
    Rng rng(corpus_seed);
    Database db(schema);
    for (RelationId r = 0; r < 2; ++r) {
      for (int i = 0; i < 300; ++i) {
        const int64_t c = rng.UniformInt(0, 999);
        const int64_t a = rng.UniformInt(0, 399);
        const int64_t b = rng.UniformInt(0, 2);
        const int64_t d =
            rng.Bernoulli(0.1) ? c + rng.UniformInt(-20, 20) : c;
        std::vector<Value> values = {Value(a), Value(b), Value(c), Value(d)};
        for (size_t a = 0; a < values.size(); ++a) {
          if (a < 2 && rng.Bernoulli(0.05)) values[a] = Value();
          if (rng.Bernoulli(0.02)) values[a] = Value(std::nan(""));
        }
        db.Insert(Fact(r, std::move(values)));
      }
    }
    const ViolationSet mi = session.detector().FindViolations(db);
    std::map<FactId, double> share;  // g(f) for I_MI
    for (const FactId f : mi.SelfInconsistentFacts()) share[f] = 1.0;
    for (const FactSpan subset : mi) {
      if (subset.size != 2) continue;
      for (const FactId f : subset) share[f] += 0.5;
    }
    const std::vector<FactId> problematic = mi.ProblematicFacts();
    ASSERT_FALSE(mi.SelfInconsistentFacts().empty());
    ASSERT_GT(mi.num_minimal_subsets(), mi.SelfInconsistentFacts().size());

    for (const uint64_t sample_seed : {1u, 2u, 3u}) {
      ApproxEvaluator evaluator(session.detector(),
                                ApproxOptions()
                                    .WithEps(0.1)
                                    .WithSeed(sample_seed)
                                    .WithMeasure("I_MI")
                                    .WithMeasure("I_P"));
      const ApproxReport report = evaluator.Evaluate(db);
      ASSERT_FALSE(report.exact);
      const size_t m = evaluator.SampleSize(db.size());
      ASSERT_EQ(report.sample_size, m);

      std::vector<FactId> sample = db.ids();
      Rng draw(sample_seed);
      for (size_t i = 0; i < m; ++i) {
        const size_t j = i + draw.UniformIndex(sample.size() - i);
        std::swap(sample[i], sample[j]);
      }
      sample.resize(m);
      double mi_sum = 0.0;
      double p_sum = 0.0;
      for (const FactId f : sample) {
        const auto it = share.find(f);
        mi_sum += it == share.end() ? 0.0 : it->second;
        p_sum += std::binary_search(problematic.begin(), problematic.end(), f)
                     ? 1.0
                     : 0.0;
      }
      ASSERT_GT(p_sum, 0.0);
      const double dn = static_cast<double>(db.size());
      const double dm = static_cast<double>(m);
      const std::string where = "corpus " + std::to_string(corpus_seed) +
                                " seed " + std::to_string(sample_seed);
      EXPECT_EQ(report.Find("I_MI")->estimate, dn * (mi_sum / dm)) << where;
      EXPECT_EQ(report.Find("I_P")->estimate, dn * (p_sum / dm)) << where;
    }
  }
}

// The measure name-filter restricts estimation.
TEST(ApproxEvaluator, MeasureFilterRestricts) {
  const auto schema = MakeAbcSchema();
  MeasureSession session(schema, AbcFds(*schema));
  const Database db = SparseCorpus(schema, 300, 900, 4);
  ApproxEvaluator evaluator(
      session.detector(),
      ApproxOptions().WithEps(0.1).WithMeasure("I_P").WithMeasure("I_MI"));
  const ApproxReport report = evaluator.Evaluate(db);
  ASSERT_EQ(report.estimates.size(), 2u);
  EXPECT_NE(report.Find("I_P"), nullptr);
  EXPECT_NE(report.Find("I_MI"), nullptr);
  EXPECT_EQ(report.Find("I_R"), nullptr);
}

}  // namespace
}  // namespace dbim
