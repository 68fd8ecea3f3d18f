#ifndef DBIM_VIOLATIONS_INCREMENTAL_H_
#define DBIM_VIOLATIONS_INCREMENTAL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "constraints/dc.h"
#include "relational/operations.h"
#include "violations/detector.h"
#include "violations/eval_kernel.h"
#include "violations/violation.h"
#include "violations/witness_index.h"

namespace dbim {

/// Per-constraint maintenance counters. `num_probes` counts the partners
/// the witness index yields (binary: partner facts whose key and indexed
/// `!=` or order predicates hold, each checked against the full body)
/// resp. satisfying assignments enumerated (k-ary) on behalf of the
/// constraint during Apply; `num_fires` counts
/// violation derivations it contributed. `watcher_count` is the
/// constraint's live watched-key count: non-empty partner buckets (binary)
/// resp. bucket keys of its pruning index (k-ary). Counters cover
/// Apply-time maintenance, not the initial build.
struct IncrementalConstraintStats {
  uint64_t num_probes = 0;
  uint64_t num_fires = 0;
  size_t watcher_count = 0;
};

/// Aggregate dispatch counters across Apply calls: how many binary
/// constraint probes the watcher layer ran vs skipped. Skipped probes are
/// the watched-dispatch win — ops whose key classes no constraint
/// watches fall through in O(key groups over the relation).
struct IncrementalDispatchStats {
  uint64_t num_ops = 0;              // probing ops (inserts + updates)
  uint64_t constraints_probed = 0;   // binary probe bodies executed
  uint64_t constraints_skipped = 0;  // binary probes skipped by watchers
};

/// Incrementally maintained MI_Sigma(D) under repairing operations.
///
/// Progress indication re-evaluates the measure after every repairing
/// operation; recomputing all violations from scratch each time is
/// quadratic (binary Sigma) to O(n^k) (k-ary) per step and dominates the
/// loop (Table 3 / Figure 6 of the paper). A single operation, however,
/// only touches witnesses involving the changed fact: deletion drops its
/// subsets, insertion/update re-derives the witnesses flowing through one
/// fact. Both directions run on the shared eval kernel
/// (violations/eval_kernel.h), the same core the batch detector drives:
///
///  * binary constraints probe the changed fact against the WitnessIndex
///    (violations/witness_index.h) that the initial detection probed: the
///    index is bulk-built once, handed to the detector, and then kept up
///    to date here. Within its partner bucket, a probe enumerates only the
///    partners the constraint's indexed predicates admit: with order
///    predicates, an OrderRuns dominance query on the first two;
///    otherwise, with a cross `!=`, every class of the partner's `!=`
///    attribute but the probe's own. A probe thus costs its partners (plus
///    O(log^3 bucket) resp. the number of classes), not its bucket, and a
///    body that reads the same with t and t' swapped (every FD) probes one
///    side only. Checks compare interned class ids only — no row-major
///    `Fact` is ever materialized;
///  * k-ary (>= 3 variable) constraints use the kernel's anchored
///    enumeration (EnumerateKAryAnchored) over a per-constraint
///    KAryBlockingIndex: every satisfying assignment through the changed
///    fact, bucket-sized work for keyed variables and a relation scan for
///    keyless ones, instead of the O(n^k) full re-detection, with new
///    candidates minimality-filtered by the same WitnessStore::AdmitKAry
///    the batch detector's pass 3 runs.
///
/// Every bucket keys on HashPoolValues — the *semantic value* of the
/// blocking attributes, not raw ValueIds — so the buckets survive a
/// shared-pool vacuum/re-intern (see MeasureSession::Vacuum) untouched.
/// The partner indexes inside them hold class ids; the first Apply after
/// the pool's generation moves rebuilds them from the buckets.
///
/// MI itself lives in a WitnessStore (violations/violation.h): the index
/// adopts the store its initial detection filled, with every subset's
/// derivation count (a subset violating two constraints counts twice; a
/// k-ary subset counts once per satisfying assignment), so Snapshot()
/// reproduces ViolationSet::multiplicities() and num_minimal_violations()
/// exactly.
class IncrementalViolationIndex {
 public:
  /// Builds the index for `db`, which the index owns: one witness index
  /// build and one full detection pass probing it, with `build_options`.
  IncrementalViolationIndex(std::shared_ptr<const Schema> schema,
                            std::vector<DenialConstraint> constraints,
                            Database db, DetectorOptions build_options = {});

  /// Builds the index over an externally owned database, which must outlive
  /// the index; every mutation must go through Apply. This is the
  /// MeasureSession form: the session owns the storage, the index maintains
  /// the violation state alongside it.
  IncrementalViolationIndex(std::shared_ptr<const Schema> schema,
                            std::vector<DenialConstraint> constraints,
                            Database* db, DetectorOptions build_options = {});

  IncrementalViolationIndex(const IncrementalViolationIndex&) = delete;
  IncrementalViolationIndex& operator=(const IncrementalViolationIndex&) =
      delete;

  const Database& db() const { return *db_; }

  /// Mutable access to the maintained database for pool remaps only
  /// (ReinternInto): the index's state is FactId- and value-keyed, so a
  /// re-intern leaves it valid. Any other mutation must go through Apply.
  Database& mutable_db() { return *db_; }

  /// Applies the operation to the database and updates the index. Returns
  /// the identifier an insertion was stored under; nullopt for deletions,
  /// updates and inapplicable operations.
  std::optional<FactId> Apply(const RepairOperation& op);

  /// Number of minimal inconsistent subsets (the I_MI value).
  size_t NumMinimalSubsets() const { return store_.num_live(); }

  /// Number of minimal-violation derivations — matches
  /// ViolationSet::num_minimal_violations() of a fresh detection.
  size_t NumMinimalViolations() const {
    return store_.num_minimal_violations();
  }

  /// Number of problematic facts (the I_P value), counted on demand.
  size_t NumProblematicFacts() const { return store_.NumMembers(); }

  bool IsConsistent() const { return store_.empty(); }

  /// Materializes the current MI set (e.g. to hand to ConflictGraph or a
  /// MeasureContext): one copy of each live slot with its multiplicity
  /// (the store's slots are distinct fact sets). Subset order is
  /// maintenance order, not the batch detector's discovery order; every
  /// measure value is invariant to it (the conflict graph numbers vertices
  /// by sorted fact id, and the repair measures normalize its edge list).
  ViolationSet Snapshot() const { return store_.Snapshot(); }

  /// Stored subset slots, live + dead. Dead slots accumulate under
  /// sustained churn (a removal only marks them); CompactSlots reclaims
  /// them.
  size_t NumStoredSlots() const { return store_.num_slots(); }

  /// Drops the dead slots (WitnessStore::Compact). O(live state); all
  /// public counters are untouched. MeasureSession::Vacuum runs this
  /// alongside its pool compaction so long trajectories stay bounded.
  void CompactSlots() { store_.Compact(); }

  /// CompactSlots when the dead-slot fraction exceeds `waste_threshold`.
  /// Returns whether compaction ran.
  bool CompactSlotsIfWasteful(double waste_threshold) {
    return store_.CompactIfWasteful(waste_threshold);
  }

  /// Apply-time maintenance counters for constraint `c` (see
  /// IncrementalConstraintStats).
  IncrementalConstraintStats ConstraintStatsFor(size_t c) const;

  const IncrementalDispatchStats& dispatch_stats() const {
    return dispatch_stats_;
  }

  /// Live watched key classes — bucket keys of groups some constraint
  /// watches (the shared buckets double as watcher lists; presence is the
  /// watch).
  size_t NumWatchedKeys() const;

  /// Test hook: whether the maintained watch state is exactly what a
  /// from-scratch rebuild would produce — the witness index passes
  /// WitnessIndex::CheckInvariant (partner indexes a vacuum left stale,
  /// rebuilt by the next Apply, are not compared), and every (binary
  /// constraint, probe side) is covered by exactly one watch probe with
  /// its own and its partner's bucket group. On failure fills `*error`
  /// and returns false.
  bool CheckWatcherInvariant(std::string* error) const;

 private:
  // One watched-dispatch probe per distinct (probe group, partner group)
  // pair over a relation: an op on that relation hashes its key
  // attributes once per probe group (the probing side's own bucket group,
  // whose attrs are its key), and a non-empty partner bucket at that key
  // is precisely "some fact can pair with the changed one under these
  // constraints" — the listed constraints become probe candidates,
  // everything else is skipped. The shared bucket doubles as the watcher
  // list: no registration state to maintain, presence IS the watch.
  struct WatchProbe {
    uint32_t probe_group;
    uint32_t partner_group;
    std::vector<uint32_t> constraints;
  };

  void BuildInitialState(const DetectorOptions& build_options);
  // Per-relation dispatch tables, watch probes and the k-ary pruning
  // indexes. Pure derivation from constraints_ and the witness index's
  // plans; called once before facts enter the indexes.
  void BuildDispatchTables();
  // One compiled evaluator per constraint against the current pool,
  // cached across ops: compilation binds pool state only through
  // FindClass on constant-equality predicates, and every event that could
  // change the answer moves pool.size() — interning a new value grows it,
  // a vacuum rebuild strictly shrinks it (rebuilds only fire when waste
  // > 0) — so a size check is a sound invalidation test. Without the
  // cache, O(|Sigma|) evaluator construction dominates the per-op cost on
  // wide constraint sets.
  const std::vector<DcEval>& CompileEvals();
  // (Re)derives all minimal subsets involving `id` and admits new ones.
  void ProbeFact(const std::vector<DcEval>& evals, FactId id);
  // Binary-constraint probes through the blocking buckets.
  void ProbeBinary(const std::vector<DcEval>& evals, FactId id);
  // K-ary anchored re-enumeration, admitted through the store's pass-3
  // minimality filter.
  void ProbeKAry(const std::vector<DcEval>& evals, FactId id);

  // Index maintenance is split so Apply can order it around the probe:
  // the k-ary indexes must hold the changed fact *before* ProbeFact (the
  // anchored enumeration binds inner variables from them, repeated-fact
  // assignments included), while the witness index takes it *after* — the
  // probe never matched the fact's own reflexive entry anyway, and adding
  // it late keeps the watcher map free of self-watchers, which would make
  // every same-attribute FD a candidate on every op and defeat watched
  // dispatch entirely.
  void AddToKAryIndexes(FactId id);
  // Must run before the fact's values change (keys are recomputed from the
  // current cells).
  void RemoveFromIndexes(FactId id);

  std::shared_ptr<const Schema> schema_;
  std::vector<DenialConstraint> constraints_;
  std::optional<Database> owned_;
  Database* db_;
  bool has_kary_ = false;

  // --- dispatch tables (indexed by RelationId) ---
  std::vector<std::vector<uint32_t>> binary_by_rel_;   // binary cs touching rel
  std::vector<std::vector<uint32_t>> kary_by_rel_;     // k-ary cs touching rel
  std::vector<std::vector<uint32_t>> selfinc_by_rel_;  // unary-capable cs
  // --- the binary constraints' buckets and partner indexes ---
  WitnessIndex witness_;

  // --- watched dispatch ---
  // rel -> watch probes, ordered by probe group so the probe hashes each
  // distinct key shape once per op.
  std::vector<std::vector<WatchProbe>> watch_probes_by_rel_;

  // --- anchored pruning (non-null exactly for the k-ary constraints) ---
  std::vector<std::unique_ptr<KAryBlockingIndex>> kary_indexes_;

  // --- per-constraint counters ---
  struct Counters {
    uint64_t probes = 0;
    uint64_t fires = 0;
  };
  std::vector<Counters> stats_;  // parallel to constraints_

  // --- compiled-eval cache (see CompileEvals) ---
  std::vector<DcEval> evals_cache_;
  // Cache key: pool identity AND size. Size alone is unsound — a session
  // vacuum swaps in a freshly built pool (new class ids, old pool freed)
  // that can grow back to the cached size before the next compile.
  uint64_t evals_pool_generation_ = 0;
  size_t evals_pool_size_ = SIZE_MAX;

  // --- per-op scratch for the watched binary probe (Apply is externally
  // synchronized per index, so reuse is safe and keeps allocations off the
  // per-op hot path) ---
  std::vector<uint32_t> probe_candidates_;
  std::vector<FactId> probe_hits_;
  IncrementalDispatchStats dispatch_stats_;
  // MI_Sigma(D), with its self-inconsistent facts.
  WitnessStore store_;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_INCREMENTAL_H_
