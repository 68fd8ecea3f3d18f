#include "violations/violation.h"

#include <algorithm>

#include "common/check.h"

namespace dbim {

void ViolationSet::Add(std::vector<FactId> subset, size_t multiplicity) {
  DBIM_CHECK(!subset.empty());
  DBIM_CHECK(std::is_sorted(subset.begin(), subset.end()));
  num_minimal_violations_ += multiplicity;
  subsets_.push_back(std::move(subset));
  multiplicities_.push_back(static_cast<uint32_t>(multiplicity));
}

std::vector<FactId> ViolationSet::ProblematicFacts() const {
  std::vector<FactId> out;
  for (const auto& subset : subsets_) {
    out.insert(out.end(), subset.begin(), subset.end());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

std::vector<FactId> ViolationSet::SelfInconsistentFacts() const {
  std::vector<FactId> out;
  for (const auto& subset : subsets_) {
    if (subset.size() == 1) out.push_back(subset[0]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t ViolationSet::MaxSubsetSize() const {
  size_t m = 0;
  for (const auto& subset : subsets_) m = std::max(m, subset.size());
  return m;
}

double ViolationSet::ViolatingPairRatio(size_t db_size) const {
  if (db_size < 2) return 0.0;
  size_t pairs = 0;
  for (const auto& subset : subsets_) {
    if (subset.size() == 2) ++pairs;
  }
  const double all_pairs =
      0.5 * static_cast<double>(db_size) * static_cast<double>(db_size - 1);
  return static_cast<double>(pairs) / all_pairs;
}

}  // namespace dbim
