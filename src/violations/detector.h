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

class WitnessIndex;

/// Knobs for violation detection. Detection always runs to completion:
/// every measure is a function of the whole of MI_Sigma(D).
struct DetectorOptions {
  /// Worker threads for detection, which makes three fan-outs whatever
  /// the number of constraints: the witness index build (one task per
  /// bucket group, WitnessIndex::Build), the pass-1 self-inconsistency
  /// scan (one task per single-relation constraint) and one bucket-major
  /// probe, split into work-stealing ranges over the concatenated units of
  /// every binary and k-ary constraint: a binary constraint's probe
  /// buckets (each looks its partners up once) or, for an FD-like body,
  /// its multi-class `!=` splits (each walks its cross-class pairs), and a
  /// k-ary constraint's outermost-variable rows.
  /// 1 = sequential on the calling thread; 0 = one per hardware thread.
  /// Results are bit-identical for every value: tasks write range-private
  /// buffers, and each constraint's pairs are sorted into (probe row,
  /// partner row) order before they are deduplicated and admitted.
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

  /// All minimal inconsistent subsets of `db`, each with its derivation
  /// count, in discovery order. Builds a temporary witness index.
  ViolationSet FindViolations(const Database& db) const;

  /// The same subsets as a WitnessStore, probing `index`, which the caller
  /// built (and may go on to maintain) over exactly `db`'s live facts for
  /// this detector's constraints. The incremental index adopts the store.
  WitnessStore FindWitnesses(const Database& db,
                             const WitnessIndex& index) const;

  /// Whether `db` satisfies every constraint. Runs sequentially, one
  /// constraint at a time, and stops at the first witness: each binary
  /// constraint's part of the witness index is built just before its
  /// probe.
  bool Satisfies(const Database& db) const;

  /// Cumulative counters for constraint `c` across every detection this
  /// detector has run. Thread-safe.
  DetectorConstraintStats constraint_stats(size_t c) const;

 private:
  /// Shared detection pipeline over the built witness index `index`. A
  /// null `index` is Satisfies' early exit: it walks the constraints one
  /// at a time, builds each one's part of an index of its own, and stops
  /// at the first subset.
  WitnessStore Detect(const Database& db, const WitnessIndex* index) const;

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
