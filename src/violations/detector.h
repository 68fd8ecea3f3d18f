#ifndef DBIM_VIOLATIONS_DETECTOR_H_
#define DBIM_VIOLATIONS_DETECTOR_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "constraints/dc.h"
#include "relational/database.h"
#include "violations/violation.h"

namespace dbim {

/// Knobs for violation detection. Detection always runs to completion:
/// every measure is a function of the whole of MI_Sigma(D).
struct DetectorOptions {
  /// Worker threads for every enumeration phase of detection: the pass-1
  /// self-inconsistency scan, the blocking bucket build, the
  /// binary-constraint probe (one order-index query per probe row, sharded
  /// over probe rows), and the k-ary enumeration (sharded over
  /// outermost-variable rows).
  /// 1 = fully sequential on the calling thread (no pool involvement);
  /// 0 = one per hardware thread. Results are bit-identical for every
  /// value: shards write into per-shard buffers that are merged — dedup
  /// and bucket j-order included — in the sequential path's canonical
  /// order.
  size_t num_threads = 1;
};

/// Cumulative per-constraint detection counters: candidate subsets merged
/// (probes) and subsets admitted into the result (fires) on behalf of one
/// constraint.
struct DetectorConstraintStats {
  uint64_t num_probes = 0;
  uint64_t num_fires = 0;
};

/// Computes MI_Sigma(D) for a set of denial constraints — the exact result
/// set of the paper's `SELECT DISTINCT R1.ID, R2.ID FROM R R1, R R2 WHERE
/// <body>` self-join, generalized to unary and k-ary DCs, with minimality
/// enforced across constraints (a pair containing a self-inconsistent fact
/// is not a *minimal* subset).
class ViolationDetector {
 public:
  ViolationDetector(std::shared_ptr<const Schema> schema,
                    std::vector<DenialConstraint> constraints,
                    DetectorOptions options = {});

  const std::vector<DenialConstraint>& constraints() const {
    return constraints_;
  }
  const Schema& schema() const { return *schema_; }

  /// All minimal inconsistent subsets of `db`.
  ViolationSet FindViolations(const Database& db) const;

  /// Whether `db` satisfies every constraint. Runs sequentially and stops
  /// at the first witness.
  bool Satisfies(const Database& db) const;

  /// Cumulative counters for constraint `c` across every detection this
  /// detector has run. Thread-safe.
  DetectorConstraintStats constraint_stats(size_t c) const;

 private:
  /// Shared detection pipeline. `first_witness_only` is Satisfies' early
  /// exit: it forces the sequential path and stops at the first subset.
  ViolationSet Detect(const Database& db, bool first_witness_only) const;

  std::shared_ptr<const Schema> schema_;
  std::vector<DenialConstraint> constraints_;
  DetectorOptions options_;

  // Pass-2 counters, bumped by each constraint's probes and admitted
  // subsets. Detect is const and may run concurrently from session threads,
  // so updates are mutex-guarded.
  mutable std::mutex stats_mu_;
  mutable std::vector<DetectorConstraintStats> stats_;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_DETECTOR_H_
