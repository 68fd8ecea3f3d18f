#ifndef DBIM_STREAMING_APPROX_H_
#define DBIM_STREAMING_APPROX_H_

#include <memory>
#include <string>
#include <vector>

#include "measures/measure.h"
#include "relational/database.h"
#include "violations/detector.h"

namespace dbim {

/// Knobs for sampling-based measure estimation (see ApproxEvaluator).
struct ApproxOptions {
  /// Target half-width of the confidence interval, relative to the
  /// database size (the Hoeffding accuracy parameter): the planned sample
  /// size is ceil(ln(2 / (1 - confidence)) / (2 eps^2)), clamped to
  /// [min_sample, n]. Smaller eps = bigger sample = tighter interval.
  double eps = 0.1;

  /// Nominal two-sided coverage probability of [ci_low, ci_high].
  double confidence = 0.95;

  /// Seed of the sampling RNG. Estimates are a pure function of
  /// (database, Sigma, options) — bit-identical across runs, machines and
  /// detector thread counts for a fixed seed.
  uint64_t seed = 42;

  /// Floor on the sample size (variance estimates need a few points).
  size_t min_sample = 16;

  /// Restrict estimation to these measure names; empty = every estimable
  /// measure (I_MI, I_P, I_R, I_lin_R). Unknown names are ignored.
  std::vector<std::string> only;

  // Builder-style setters (each returns *this for chaining).
  ApproxOptions& WithEps(double e) {
    eps = e;
    return *this;
  }
  ApproxOptions& WithConfidence(double c) {
    confidence = c;
    return *this;
  }
  ApproxOptions& WithSeed(uint64_t s) {
    seed = s;
    return *this;
  }
  ApproxOptions& WithMeasure(std::string name) {
    only.push_back(std::move(name));
    return *this;
  }
};

/// One estimated measure: a point estimate with a two-sided confidence
/// interval at ApproxOptions::confidence, plus the fraction of facts the
/// estimator actually read. sample_fraction == 1.0 means the exact measure
/// code ran — estimate reproduces the exact value bit-for-bit and the
/// interval is degenerate.
struct ApproxEstimate {
  std::string name;
  double estimate = 0.0;
  double ci_low = 0.0;
  double ci_high = 0.0;
  double sample_fraction = 1.0;
  double seconds = 0.0;
};

struct ApproxReport {
  size_t num_facts = 0;
  size_t sample_size = 0;
  /// Whether the exact path ran for every measure (k-ary constraints in
  /// Sigma, a database no larger than the planned sample, or eps <= 0).
  bool exact = false;
  std::vector<ApproxEstimate> estimates;

  /// The entry named `name`, or nullptr.
  const ApproxEstimate* Find(const std::string& name) const;
};

/// Sampling-based estimation of the expensive inconsistency measures:
/// trade accuracy for latency per request, with an explicit confidence
/// interval instead of a silent approximation.
///
/// The estimator draws m facts without replacement (m from the Hoeffding
/// bound, see ApproxOptions::eps) and probes only the sampled facts'
/// violation neighborhoods through a WitnessIndex built once per call,
/// never running a full detection pass:
///
///  * I_P is n times the sampled problematic-fact rate (a finite-population
///    mean of {0,1} indicators; normal interval with the finite-population
///    correction, since sampling is without replacement);
///  * I_MI rides the same design through the per-fact share g(f) = 1 for a
///    self-inconsistent fact (its singleton is its only minimal subset),
///    else half its count of minimal violating pairs — sum_f g(f) telescopes
///    to exactly |MI_Sigma(D)|, so n * mean(g) is unbiased;
///  * I_R and I_lin_R are Horvitz-Thompson sums over the *conflict
///    components* touched by the sample: each discovered component is
///    expanded (BFS over minimal violating pairs), solved exactly by the
///    registry's own repair measures restricted to the component's
///    witnesses, and weighted by 1/P(component is hit by the sample) —
///    components decompose both measures, so the weighted sum is unbiased.
///
/// When the sample shows no inconsistency at all, intervals fall back to a
/// Chernoff upper bound on the problematic-fact rate (the "rule of three"
/// generalization), so a consistent-looking sample still reports an honest
/// upper bound instead of [0, 0].
///
/// Cost model: one WitnessIndex build per call (O(n) per bucket group and
/// `!=` index, O(n log n) per order index), then I_MI / I_P query a
/// partner index per sampled fact and binary constraint: the probe costs
/// the partners the constraint's indexed predicates admit (plus
/// O(log^2 bucket) for order predicates), not a walk of the whole bucket.
/// The repair estimators additionally expand and exactly solve every conflict
/// component the sample touches, so their cost scales with component size:
/// they shine in the subcritical regime (key collisions rare, many small
/// components) and legitimately degrade toward exact-path cost when the
/// conflict graph percolates into a giant component — a database that
/// inconsistent needs repairing, not estimating.
///
/// Exact fallback: k-ary (>= 3 variable) constraints in Sigma, eps <= 0, or
/// n <= m run the ordinary measure code over a full MeasureContext —
/// sample_fraction 1.0, bit-identical to MeasureSession::Evaluate values.
///
/// Deterministic: for a fixed seed, estimates are bit-identical across
/// runs and across detector thread counts (the estimator itself is
/// sequential; the exact fallback inherits the detector's thread-count
/// invariance).
class ApproxEvaluator {
 public:
  ApproxEvaluator(const ViolationDetector& detector,
                  ApproxOptions options = {});
  ~ApproxEvaluator();

  ApproxEvaluator(const ApproxEvaluator&) = delete;
  ApproxEvaluator& operator=(const ApproxEvaluator&) = delete;

  /// Planned sample size for a database of n facts.
  size_t SampleSize(size_t n) const;

  /// Estimates every selected measure over `db`. Thread-compatible with
  /// itself (const; per-call state only), but `db` must not mutate during
  /// the call — under a MeasureSession, run it through WithDatabase.
  ApproxReport Evaluate(const Database& db) const;

  const ApproxOptions& options() const { return options_; }

 private:
  bool Selected(const std::string& name) const;
  ApproxReport EvaluateExact(const Database& db) const;

  const ViolationDetector& detector_;
  ApproxOptions options_;
  /// The estimable measure subset (registry name-filter), used by the
  /// exact fallback and the per-component repair solves.
  std::vector<std::unique_ptr<InconsistencyMeasure>> measures_;
  bool has_kary_ = false;
};

}  // namespace dbim

#endif  // DBIM_STREAMING_APPROX_H_
