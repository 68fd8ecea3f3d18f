#include "streaming/approx.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "common/timer.h"
#include "measures/registry.h"
#include "violations/eval_kernel.h"
#include "violations/violation.h"
#include "violations/witness_index.h"

namespace dbim {

namespace {

constexpr const char* kEstimable[] = {"I_MI", "I_P", "I_R", "I_lin_R"};

/// Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9
/// relative error) — CI quantiles without a special-function dependency.
double NormalQuantile(double p) {
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double kLow = 0.02425;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLow) return -NormalQuantile(1.0 - p);
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

/// Per-call violation-neighborhood oracle over the eval kernel: answers
/// "is f self-inconsistent?" and "which minimal violating pairs contain
/// f?" by probing a witness index built once over the database, never
/// running a detection pass. Self-inconsistency and partner lists are
/// memoized per fact, so the component BFS of the repair estimators
/// revisits facts for free.
class NeighborhoodProbe {
 public:
  NeighborhoodProbe(const std::vector<DenialConstraint>& sigma,
                    const Database& db)
      : db_(db), index_(sigma, db.schema().num_relations()) {
    evals_.reserve(sigma.size());
    for (const DenialConstraint& dc : sigma) {
      evals_.emplace_back(dc, db.pool());
    }
    index_.Build(db, 1);
  }

  bool SelfInconsistent(FactId id) {
    const auto it = self_memo_.find(id);
    if (it != self_memo_.end()) return it->second;
    bool self_inc = false;
    for (const DcEval& eval : evals_) {
      if (MakesSelfInconsistentInterned(eval, db_, id)) {
        self_inc = true;
        break;
      }
    }
    self_memo_.emplace(id, self_inc);
    return self_inc;
  }

  /// Distinct partners g != f with {f, g} a minimal inconsistent subset:
  /// the pair violates some binary constraint and neither end is
  /// self-inconsistent (a self-inconsistent fact's singleton subsumes its
  /// pairs, so it has no minimal pairs — matching ViolationSet semantics).
  /// The index yields the partners each constraint's indexed predicates
  /// admit, with f on side 0 only when the body is symmetric (side 1 would
  /// find the same pairs), and each is checked against the full body.
  const std::vector<FactId>& MinimalPairPartners(FactId f) {
    const auto it = partner_memo_.find(f);
    if (it != partner_memo_.end()) return it->second;
    std::vector<FactId> partners;
    if (!SelfInconsistent(f)) {
      const Database::RowLocation loc = db_.Locate(f);
      const RowRef fr{&db_.relation_block(loc.relation), loc.row};
      for (size_t c = 0; c < evals_.size(); ++c) {
        const DenialConstraint& dc = evals_[c].dc();
        if (dc.num_vars() != 2) continue;
        const int sides = index_.plan(c).symmetric ? 1 : 2;
        for (int side = 0; side < sides; ++side) {
          if (dc.var_relation(side) != loc.relation) continue;
          index_.ForEachPartner(db_, c, side, fr, [&](FactId g) {
            if (g == f) return;
            RowRef assignment[2];
            assignment[side] = fr;
            assignment[1 - side] = BindFact(db_, g);
            if (evals_[c].BodyHolds(assignment)) partners.push_back(g);
          });
        }
      }
      std::sort(partners.begin(), partners.end());
      partners.erase(std::unique(partners.begin(), partners.end()),
                     partners.end());
      partners.erase(
          std::remove_if(partners.begin(), partners.end(),
                         [&](FactId g) { return SelfInconsistent(g); }),
          partners.end());
    }
    return partner_memo_.emplace(f, std::move(partners)).first->second;
  }

  bool Problematic(FactId f) {
    return SelfInconsistent(f) || !MinimalPairPartners(f).empty();
  }

 private:
  const Database& db_;
  std::vector<DcEval> evals_;
  WitnessIndex index_;
  std::unordered_map<FactId, bool> self_memo_;
  std::unordered_map<FactId, std::vector<FactId>> partner_memo_;
};

}  // namespace

const ApproxEstimate* ApproxReport::Find(const std::string& name) const {
  for (const ApproxEstimate& e : estimates) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

ApproxEvaluator::ApproxEvaluator(const ViolationDetector& detector,
                                 ApproxOptions options)
    : detector_(detector), options_(std::move(options)) {
  RegistryOptions registry = RegistryOptions().WithIncludeMC(false);
  for (const char* name : kEstimable) {
    if (Selected(name)) registry.WithMeasure(name);
  }
  measures_ = CreateMeasures(registry);
  for (const DenialConstraint& dc : detector_.constraints()) {
    if (dc.num_vars() >= 3) has_kary_ = true;
  }
}

ApproxEvaluator::~ApproxEvaluator() = default;

bool ApproxEvaluator::Selected(const std::string& name) const {
  if (options_.only.empty()) return true;
  return std::find(options_.only.begin(), options_.only.end(), name) !=
         options_.only.end();
}

size_t ApproxEvaluator::SampleSize(size_t n) const {
  if (options_.eps <= 0.0) return n;
  const double delta = std::max(1.0 - options_.confidence, 1e-12);
  const double hoeffding =
      std::ceil(std::log(2.0 / delta) / (2.0 * options_.eps * options_.eps));
  const size_t planned =
      std::max(static_cast<size_t>(hoeffding), options_.min_sample);
  return std::min(planned, n);
}

ApproxReport ApproxEvaluator::EvaluateExact(const Database& db) const {
  ApproxReport report;
  report.num_facts = db.size();
  report.sample_size = db.size();
  report.exact = true;
  MeasureContext context(detector_, db);
  for (const auto& measure : measures_) {
    Timer timer;
    const double value = measure->Evaluate(context);
    ApproxEstimate e;
    e.name = measure->name();
    e.estimate = value;
    e.ci_low = value;
    e.ci_high = value;
    e.sample_fraction = 1.0;
    e.seconds = timer.Seconds();
    report.estimates.push_back(std::move(e));
  }
  return report;
}

ApproxReport ApproxEvaluator::Evaluate(const Database& db) const {
  const size_t n = db.size();
  const size_t m = SampleSize(n);
  if (has_kary_ || options_.eps <= 0.0 || n == 0 || m >= n) {
    return EvaluateExact(db);
  }

  ApproxReport report;
  report.num_facts = n;
  report.sample_size = m;
  const double dn = static_cast<double>(n);
  const double dm = static_cast<double>(m);
  const double fraction = dm / dn;
  const double z = NormalQuantile(0.5 + options_.confidence / 2.0);
  const double delta = std::max(1.0 - options_.confidence, 1e-12);
  // Chernoff upper bound on the problematic-fact rate compatible with a
  // sample showing zero hits — the rule-of-three generalization. All the
  // zero-hit interval bounds below derive from K = zero_rate * n facts.
  const double zero_rate = std::min(1.0, std::log(1.0 / delta) / dm);
  // Finite-population correction: sampling without replacement shrinks
  // the variance of the sample mean by (n - m) / (n - 1).
  const double fpc = (dn - dm) / (dn - 1.0);

  // The sample: m ids without replacement via partial Fisher-Yates over
  // the sorted id list — deterministic in (db, seed).
  std::vector<FactId> sample = db.ids();
  Rng rng(options_.seed);
  for (size_t i = 0; i < m; ++i) {
    const size_t j = i + rng.UniformIndex(sample.size() - i);
    std::swap(sample[i], sample[j]);
  }
  sample.resize(m);

  NeighborhoodProbe probe(detector_.constraints(), db);

  // n * (sample mean of value_of) with a normal interval; zero-hit samples
  // report [0, zero_bound] instead of a degenerate [0, 0].
  auto mean_estimate = [&](const std::string& name, auto&& value_of,
                           double zero_bound) {
    Timer timer;
    double sum = 0.0;
    double sumsq = 0.0;
    for (const FactId f : sample) {
      const double v = value_of(f);
      sum += v;
      sumsq += v * v;
    }
    ApproxEstimate e;
    e.name = name;
    e.sample_fraction = fraction;
    const double mean = sum / dm;
    e.estimate = dn * mean;
    if (sum == 0.0) {
      e.ci_low = 0.0;
      e.ci_high = zero_bound;
    } else {
      const double var = std::max(0.0, (sumsq - dm * mean * mean) / (dm - 1.0));
      const double half = z * dn * std::sqrt(var / dm * fpc);
      e.ci_low = std::max(0.0, e.estimate - half);
      e.ci_high = e.estimate + half;
    }
    e.seconds = timer.Seconds();
    return e;
  };

  // Horvitz-Thompson accumulators for the repair measures, filled lazily
  // by `compute_repairs` (one component sweep serves both measures).
  struct RepairAcc {
    double est = 0.0;
    double var = 0.0;
    double eval_seconds = 0.0;
    bool any = false;
  };
  RepairAcc acc_r;
  RepairAcc acc_lin;
  double repair_overhead = 0.0;
  double max_cost = 0.0;
  bool repairs_done = false;
  const InconsistencyMeasure* min_repair = nullptr;
  const InconsistencyMeasure* lin_repair = nullptr;
  for (const auto& measure : measures_) {
    if (measure->name() == "I_R") min_repair = measure.get();
    if (measure->name() == "I_lin_R") lin_repair = measure.get();
  }

  auto compute_repairs = [&] {
    if (repairs_done) return;
    repairs_done = true;
    Timer loop_timer;
    db.ForEachId([&](FactId id) {
      max_cost = std::max(max_cost, db.deletion_cost(id));
    });
    std::unordered_set<FactId> assigned;
    for (const FactId f : sample) {
      if (assigned.count(f) != 0 || !probe.Problematic(f)) continue;
      // Expand f's conflict component over minimal violating pairs
      // (self-inconsistent facts have no pairs: singleton components).
      std::vector<FactId> members{f};
      assigned.insert(f);
      for (size_t head = 0; head < members.size(); ++head) {
        for (const FactId g : probe.MinimalPairPartners(members[head])) {
          if (assigned.insert(g).second) members.push_back(g);
        }
      }
      std::sort(members.begin(), members.end());
      // P(the sample hits this component): 1 - C(n-s, m) / C(n, m).
      double miss = 1.0;
      for (size_t i = 0; i < members.size(); ++i) {
        const double numer = dn - dm - static_cast<double>(i);
        if (numer <= 0.0) {
          miss = 0.0;
          break;
        }
        miss *= numer / (dn - static_cast<double>(i));
      }
      const double pi = std::max(1.0 - miss, 1e-12);
      // The component's witness set: singleton subsets for its
      // self-inconsistent members, each in-component minimal pair once.
      ViolationSet vs;
      for (const FactId a : members) {
        if (probe.SelfInconsistent(a)) {
          vs.Add({a});
          continue;
        }
        for (const FactId b : probe.MinimalPairPartners(a)) {
          if (b > a) vs.Add({a, b});
        }
      }
      MeasureContext context(detector_, db, std::move(vs));
      auto accumulate = [&](const InconsistencyMeasure* measure,
                            RepairAcc& acc) {
        if (measure == nullptr) return;
        Timer timer;
        const double v = measure->Evaluate(context);
        acc.eval_seconds += timer.Seconds();
        acc.est += v / pi;
        acc.var += v * v * (1.0 - pi) / (pi * pi);
        acc.any = true;
      };
      accumulate(min_repair, acc_r);
      accumulate(lin_repair, acc_lin);
    }
    repair_overhead = std::max(
        0.0, loop_timer.Seconds() - acc_r.eval_seconds - acc_lin.eval_seconds);
  };

  auto repair_estimate = [&](const std::string& name, const RepairAcc& acc) {
    compute_repairs();
    ApproxEstimate e;
    e.name = name;
    e.sample_fraction = fraction;
    const double share =
        (min_repair != nullptr && lin_repair != nullptr) ? 0.5 : 1.0;
    e.seconds = acc.eval_seconds + repair_overhead * share;
    if (!acc.any) {
      e.estimate = 0.0;
      e.ci_low = 0.0;
      e.ci_high = zero_rate * dn * max_cost;
      return e;
    }
    e.estimate = acc.est;
    const double half = z * std::sqrt(acc.var);
    e.ci_low = std::max(0.0, e.estimate - half);
    e.ci_high = e.estimate + half;
    return e;
  };

  for (const auto& measure : measures_) {
    const std::string name = measure->name();
    if (name == "I_P") {
      report.estimates.push_back(mean_estimate(
          name,
          [&](FactId f) { return probe.Problematic(f) ? 1.0 : 0.0; },
          zero_rate * dn));
    } else if (name == "I_MI") {
      // Per-fact share g(f): a self-inconsistent fact owns its singleton
      // subset; otherwise each minimal pair is split between its two ends.
      // sum_f g(f) telescopes to |MI| exactly, so n * mean(g) is unbiased.
      // Zero-hit bound: K problematic facts carry at most K singletons or
      // K*(K-1)/2 pairs.
      const double k = zero_rate * dn;
      report.estimates.push_back(mean_estimate(
          name,
          [&](FactId f) {
            if (probe.SelfInconsistent(f)) return 1.0;
            return static_cast<double>(probe.MinimalPairPartners(f).size()) /
                   2.0;
          },
          k + k * (k - 1.0) / 2.0));
    } else if (name == "I_R") {
      report.estimates.push_back(repair_estimate(name, acc_r));
    } else if (name == "I_lin_R") {
      report.estimates.push_back(repair_estimate(name, acc_lin));
    }
  }
  return report;
}

}  // namespace dbim
