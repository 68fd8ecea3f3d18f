#ifndef DBIM_VIOLATIONS_VIOLATION_H_
#define DBIM_VIOLATIONS_VIOLATION_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "relational/database.h"

namespace dbim {

/// The set MI_Sigma(D) of minimal inconsistent subsets of a database, plus
/// bookkeeping the measures need:
///
///  * `minimal_subsets()` — each element is a sorted set of fact ids E with
///    E inconsistent and every proper subset consistent. Deduplicated across
///    constraints (MI is a set of fact sets, so a pair violating two DCs
///    appears once — this matters for I_MI on the running example).
///  * `self_inconsistent()` — facts f with {f} inconsistent ("contradictory
///    tuples"); these are exactly the singleton minimal subsets.
///  * `num_minimal_violations()` — the count of (F, sigma) pairs from the
///    paper's Section 5.3 discussion, where the same fact set is counted
///    once per constraint it violates.
class ViolationSet {
 public:
  ViolationSet() = default;

  /// Adds a minimal inconsistent subset (sorted, distinct ids); duplicates
  /// across constraints are ignored for the subset list but still counted as
  /// minimal violations.
  void Add(std::vector<FactId> subset);

  const std::vector<std::vector<FactId>>& minimal_subsets() const {
    return subsets_;
  }
  size_t num_minimal_subsets() const { return subsets_.size(); }
  size_t num_minimal_violations() const { return num_minimal_violations_; }

  bool empty() const { return subsets_.empty(); }

  /// Union of all minimal subsets: the problematic facts, sorted.
  std::vector<FactId> ProblematicFacts() const;

  /// Facts forming singleton minimal subsets, sorted.
  std::vector<FactId> SelfInconsistentFacts() const;

  /// Largest subset cardinality (0 when consistent). This bounds the LP
  /// integrality gap and the continuity constant d_Sigma.
  size_t MaxSubsetSize() const;

  /// Number of size-2 subsets divided by n-choose-2 — the "violation ratio"
  /// the paper reports above each chart of Figure 4.
  double ViolatingPairRatio(size_t db_size) const;

 private:
  std::vector<std::vector<FactId>> subsets_;
  std::unordered_set<uint64_t> seen_;  // canonical hashes for deduplication
  size_t num_minimal_violations_ = 0;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_VIOLATION_H_
