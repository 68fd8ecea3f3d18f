#include "measures/shapley.h"

#include <algorithm>
#include <map>

#include "common/check.h"
#include "common/rng.h"

namespace dbim {

std::vector<std::pair<FactId, double>> ShapleyMiValues(
    MeasureContext& context) {
  std::map<FactId, double> share;
  for (const FactId id : context.db().ids()) share[id] = 0.0;
  for (const FactSpan subset : context.violations()) {
    const double portion = 1.0 / static_cast<double>(subset.size);
    for (const FactId id : subset) share[id] += portion;
  }
  return {share.begin(), share.end()};
}

std::vector<std::pair<FactId, double>> ShapleySampled(
    const InconsistencyMeasure& measure, const ViolationDetector& detector,
    const Database& db, size_t samples, uint64_t seed) {
  const std::vector<FactId> ids = db.ids();
  const size_t n = ids.size();
  std::map<FactId, double> share;
  for (const FactId id : ids) share[id] = 0.0;
  if (n == 0) return {share.begin(), share.end()};

  auto value_of_prefix = [&](const std::vector<FactId>& order, size_t k) {
    const Database sub =
        db.Restrict(std::vector<FactId>(order.begin(), order.begin() + k));
    return measure.EvaluateFresh(detector, sub);
  };

  auto add_order = [&](const std::vector<FactId>& order, double weight) {
    double prev = 0.0;  // measure of the empty database
    for (size_t k = 1; k <= n; ++k) {
      const double cur = value_of_prefix(order, k);
      share[order[k - 1]] += weight * (cur - prev);
      prev = cur;
    }
  };

  if (n <= 10) {
    // Exact: average over all n! permutations.
    std::vector<FactId> order = ids;
    std::sort(order.begin(), order.end());
    size_t count = 0;
    do {
      ++count;
      add_order(order, 1.0);
    } while (std::next_permutation(order.begin(), order.end()));
    for (auto& [id, v] : share) v /= static_cast<double>(count);
  } else {
    DBIM_CHECK(samples > 0);
    Rng rng(seed);
    std::vector<FactId> order = ids;
    for (size_t s = 0; s < samples; ++s) {
      std::shuffle(order.begin(), order.end(), rng.engine());
      add_order(order, 1.0 / static_cast<double>(samples));
    }
  }
  return {share.begin(), share.end()};
}

}  // namespace dbim
