#ifndef DBIM_VIOLATIONS_VIOLATION_H_
#define DBIM_VIOLATIONS_VIOLATION_H_

#include <cstdint>
#include <vector>

#include "relational/database.h"

namespace dbim {

/// The set MI_Sigma(D) of minimal inconsistent subsets of a database, plus
/// bookkeeping the measures need:
///
///  * `minimal_subsets()` — each element is a sorted set of fact ids E with
///    E inconsistent and every proper subset consistent. MI is a set of fact
///    sets, so a pair violating two DCs appears once (this matters for I_MI
///    on the running example). Keeping the list duplicate-free is the
///    producer's job: the detector dedups across constraints, and the
///    incremental index's slots are distinct by construction.
///  * `self_inconsistent()` — facts f with {f} inconsistent ("contradictory
///    tuples"); these are exactly the singleton minimal subsets.
///  * `num_minimal_violations()` — the count of (F, sigma) pairs from the
///    paper's Section 5.3 discussion, where the same fact set is counted
///    once per constraint it violates: the sum of the per-subset
///    `multiplicities()`, the number of derivations of a subset (one per
///    binary constraint it violates, one per satisfying assignment of a
///    k-ary constraint with exactly that support, and one for a
///    contradictory fact's singleton).
class ViolationSet {
 public:
  ViolationSet() = default;

  /// Appends a minimal inconsistent subset (sorted, distinct ids) not yet in
  /// the set, counting it as `multiplicity` minimal violations (one per
  /// constraint or assignment that derives it).
  void Add(std::vector<FactId> subset, size_t multiplicity = 1);

  void Reserve(size_t num_subsets) {
    subsets_.reserve(num_subsets);
    multiplicities_.reserve(num_subsets);
  }

  const std::vector<std::vector<FactId>>& minimal_subsets() const {
    return subsets_;
  }
  size_t num_minimal_subsets() const { return subsets_.size(); }
  /// Derivations of each subset, parallel to minimal_subsets().
  const std::vector<uint32_t>& multiplicities() const {
    return multiplicities_;
  }
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
  std::vector<uint32_t> multiplicities_;  // parallel to subsets_
  size_t num_minimal_violations_ = 0;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_VIOLATION_H_
