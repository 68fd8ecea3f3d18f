#ifndef DBIM_VIOLATIONS_INCREMENTAL_H_
#define DBIM_VIOLATIONS_INCREMENTAL_H_

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "constraints/dc.h"
#include "relational/operations.h"
#include "violations/detector.h"
#include "violations/eval_kernel.h"
#include "violations/violation.h"

namespace dbim {

/// Per-constraint maintenance counters. `num_probes` counts candidate
/// partners examined (binary) resp. satisfying assignments enumerated
/// (k-ary) on behalf of the constraint during Apply; `num_fires` counts
/// violation derivations it contributed. `activity` is an exponentially
/// decayed fire count (MiniSat-style geometric bump increment, decay 0.95
/// per probing op) — the hottest-first probe order key. `watcher_count`
/// is the constraint's live watched-key count: non-empty partner buckets
/// (binary) resp. bucket keys of its pruning index (k-ary). Counters
/// cover Apply-time maintenance, not the initial build.
struct IncrementalConstraintStats {
  uint64_t num_probes = 0;
  uint64_t num_fires = 0;
  double activity = 0.0;
  size_t watcher_count = 0;
};

/// Aggregate dispatch counters across Apply calls: how many binary
/// constraint probes the watcher layer ran vs skipped. Skipped probes are
/// the watched-dispatch win — ops whose key classes no constraint
/// watches fall through in O(signatures over the relation).
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
///  * binary constraints probe the changed fact against per-constraint
///    hash-blocking buckets maintained across operations (O(bucket) per
///    op; constraints without an equality key fall back to a scan of the
///    partner relation), comparing interned class ids only — no row-major
///    `Fact` is ever materialized;
///  * k-ary (>= 3 variable) constraints use the kernel's *anchored*
///    enumeration: every satisfying assignment through the changed fact,
///    O(k * n^{k-1}) instead of the O(n^k) full re-detection, with new
///    candidates minimality-filtered against the live witness store the
///    same way the batch detector's pass 3 filters them.
///
/// Bucket keys hash the *semantic value* of the blocking attributes (via
/// the pool's precomputed hashes), not raw ValueIds — so the index survives
/// a shared-pool vacuum/re-intern (see MeasureSession::Vacuum) untouched:
/// every piece of its state is keyed by FactId or value semantics.
///
/// The index also maintains the per-derivation minimal-violation count the
/// detector reports (a subset violating two constraints counts twice; a
/// k-ary subset counts once per satisfying assignment), so Snapshot()
/// reproduces ViolationSet::num_minimal_violations() exactly.
class IncrementalViolationIndex {
 public:
  /// Builds the index for `db`, which the index owns (one full detection
  /// pass with `build_options`; the options must not cap or deadline the
  /// pass — a truncated initial MI set would be silently wrong).
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
  size_t NumMinimalSubsets() const { return live_subsets_; }

  /// Number of minimal-violation derivations — matches
  /// ViolationSet::num_minimal_violations() of a fresh detection.
  size_t NumMinimalViolations() const { return num_minimal_violations_; }

  /// Number of problematic facts (the I_P value).
  size_t NumProblematicFacts() const;

  bool IsConsistent() const { return live_subsets_ == 0; }

  /// Materializes the current MI set (e.g. to hand to ConflictGraph or a
  /// MeasureContext). Subset order is maintenance order, not the batch
  /// detector's discovery order; every measure value is invariant to it
  /// (the conflict graph numbers vertices by sorted fact id and normalizes
  /// its edge list).
  ViolationSet Snapshot() const;

  /// Stored subset slots, live + dead. Dead slots accumulate under
  /// sustained churn (RemoveSubsetsInvolving only marks); CompactSlots
  /// reclaims them.
  size_t NumStoredSlots() const { return subsets_.size(); }

  /// Rebuilds `subsets_`, the member postings and the canonical-key map
  /// without dead slots. O(live state); all public counters are untouched.
  /// MeasureSession::Vacuum runs this alongside its pool compaction so
  /// long trajectories stay bounded.
  void CompactSlots();

  /// CompactSlots when the dead-slot fraction exceeds `waste_threshold`.
  /// Returns whether compaction ran.
  bool CompactSlotsIfWasteful(double waste_threshold);

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
  /// from-scratch rebuild would produce — every shared bucket holds
  /// precisely the live facts hashing to its key (no stale entries, no
  /// empties left behind), and every blocked (constraint, probe side) is
  /// covered by exactly one watch probe with the matching signature and
  /// partner group. On failure fills `*error` and returns false.
  bool CheckWatcherInvariant(std::string* error) const;

 private:
  struct StoredSubset {
    std::vector<FactId> facts;
    uint32_t multiplicity = 1;  // # derivations (constraints/assignments)
    bool alive = true;
  };
  // Per-constraint blocking state: group[v] names the shared bucket group
  // (below) holding the facts of var_relation(v) keyed by the semantic
  // hash of their side-v key attributes. Only binary constraints block;
  // empty keys (no cross-variable equality) leave `blocked` false and the
  // probe falls back to scanning the partner relation. K-ary constraints
  // carry no persistent state — the anchored enumeration reads the live
  // columns directly.
  struct DcState {
    BlockingKeys keys;
    bool blocked = false;
    int group[2] = {-1, -1};
  };

  // One physical bucket map per distinct (relation, key-attribute list):
  // every blocked side with that shape would bucket exactly the same facts
  // under exactly the same keys, so constraints share the map instead of
  // each maintaining a copy — per-op bucket maintenance scales with
  // distinct key shapes, not with |Sigma|.
  struct BucketGroup {
    RelationId relation;
    std::vector<AttrIndex> attrs;
    std::unordered_map<uint64_t, std::vector<FactId>> bucket;
  };

  // One watched-dispatch probe per distinct (probe signature, partner
  // bucket group) pair over a relation: an op on that relation hashes its
  // key attributes once per signature, and a non-empty partner bucket at
  // that key is precisely "some fact can pair with the changed one under
  // these constraints" — the listed constraints become probe candidates,
  // everything else is skipped. The shared bucket doubles as the watcher
  // list: no registration state to maintain, presence IS the watch.
  struct WatchProbe {
    uint32_t sig;
    uint32_t group;
    std::vector<uint32_t> constraints;
  };

  // A deduplicated probe-key signature: probing side `s` of blocked binary
  // constraint `c` hashes the fact's (var_relation(s), side-s key attrs)
  // tuple. Constraints sharing a signature share one hash computation per
  // op, so dispatch cost scales with distinct key shapes, not |Sigma|.
  struct KeySignature {
    RelationId relation;
    std::vector<AttrIndex> attrs;
  };

  void BuildInitialState(const DetectorOptions& build_options);
  // Per-relation dispatch tables + probe-key signatures + the k-ary
  // pruning indexes. Pure derivation from constraints_; called
  // once before facts enter the buckets.
  void BuildDispatchTables();
  // The violation-count multiplicity of a freshly detected minimal subset:
  // one for the pass-1 singleton Add, one per binary constraint deriving
  // the pair in some orientation, one per k-ary satisfying assignment with
  // exactly this support. `evals` holds one compiled evaluator per
  // constraint (hoisted by the caller — the build recovers thousands of
  // subsets against the same pool).
  uint32_t RecoverMultiplicity(const std::vector<DcEval>& evals,
                               const std::vector<FactId>& subset) const;
  // One compiled evaluator per constraint against the current pool,
  // cached across ops: compilation binds pool state only through
  // FindClass on constant-equality predicates, and every event that could
  // change the answer moves pool.size() — interning a new value grows it,
  // a vacuum rebuild strictly shrinks it (rebuilds only fire when waste
  // > 0) — so a size check is a sound invalidation test. Without the
  // cache, O(|Sigma|) evaluator construction dominates the per-op cost on
  // wide constraint sets.
  const std::vector<DcEval>& CompileEvals();
  void IndexSubset(std::vector<FactId> subset, uint32_t multiplicity);
  void RemoveSubsetsInvolving(FactId id);
  // (Re)derives all minimal subsets involving `id` and inserts new ones.
  void ProbeFact(const std::vector<DcEval>& evals, FactId id);
  // Binary-constraint probes through the blocking buckets.
  void ProbeBinary(const std::vector<DcEval>& evals, FactId id);
  // K-ary anchored re-enumeration + pass-3-equivalent minimality filter.
  void ProbeKAry(const std::vector<DcEval>& evals, FactId id);
  // True when no live smaller subset is a proper subset of `candidate`
  // (which must be sorted) — the batch pass-3 minimality criterion against
  // the maintained witness store.
  bool IsMinimalCandidate(const std::vector<FactId>& candidate) const;
  void RecomputeSelfInconsistent(const std::vector<DcEval>& evals, FactId id);
  uint64_t SubsetKey(const std::vector<FactId>& subset) const;

  uint64_t KeyHashOverAttrs(const std::vector<AttrIndex>& attrs,
                            FactId id) const;
  uint64_t SideKeyHash(const DcState& state, int side, FactId id) const;
  // Bucket maintenance is split so Apply can order it around the probe:
  // the k-ary indexes must hold the changed fact *before* ProbeFact (the
  // anchored enumeration binds inner variables from them, repeated-fact
  // assignments included), while the binary buckets take it *after* — the
  // probe never matched the fact's own reflexive entry anyway, and adding
  // it late keeps the watcher map free of self-watchers, which would make
  // every same-attribute FD a candidate on every op and defeat watched
  // dispatch entirely.
  void AddToBinaryBuckets(FactId id);
  void AddToKAryIndexes(FactId id);
  void AddToBuckets(FactId id);
  void RemoveFromBuckets(FactId id);

  // One decayed-activity tick per probing op (geometric bump increment, so
  // decaying costs O(1), not O(|Sigma|)); BumpActivity credits `fires`
  // derivations to constraint `c` at the current increment.
  void DecayActivityTick();
  void BumpActivity(size_t c, uint64_t fires);

  std::shared_ptr<const Schema> schema_;
  std::vector<DenialConstraint> constraints_;
  std::optional<Database> owned_;
  Database* db_;
  bool has_kary_ = false;

  std::vector<DcState> dc_states_;  // parallel to constraints_

  // --- dispatch tables (indexed by RelationId) ---
  std::vector<std::vector<uint32_t>> binary_by_rel_;     // binary cs touching rel
  std::vector<std::vector<uint32_t>> unblocked_by_rel_;  // ... without a key
  std::vector<std::vector<uint32_t>> kary_by_rel_;       // k-ary cs touching rel
  std::vector<std::vector<uint32_t>> selfinc_by_rel_;    // unary-capable cs
  // Shared blocking buckets (one per distinct key shape) and the groups
  // living over each relation — the bucket maintenance walk.
  std::vector<BucketGroup> bucket_groups_;
  std::vector<std::vector<uint32_t>> groups_by_rel_;

  // --- watched dispatch ---
  std::vector<KeySignature> signatures_;
  std::vector<std::array<int, 2>> probe_sig_;       // (c, side) -> sig or -1
  // rel -> watch probes, ordered by signature so the probe hashes each
  // distinct signature once per op.
  std::vector<std::vector<WatchProbe>> watch_probes_by_rel_;

  // --- anchored pruning (entries non-null iff the constraint has at least
  // one keyed variable pair) ---
  std::vector<std::unique_ptr<KAryBlockingIndex>> kary_indexes_;

  // --- activity / stats ---
  struct ActivityState {
    uint64_t probes = 0;
    uint64_t fires = 0;
    double activity = 0.0;
  };
  std::vector<ActivityState> activity_;  // parallel to constraints_
  double activity_increment_ = 1.0;

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
  std::vector<uint32_t> probe_order_;
  std::vector<std::pair<uint32_t, std::vector<FactId>>> probe_found_;
  IncrementalDispatchStats dispatch_stats_;
  std::vector<StoredSubset> subsets_;
  size_t live_subsets_ = 0;
  size_t num_minimal_violations_ = 0;
  std::unordered_map<FactId, std::vector<uint32_t>> postings_;  // fact->slots
  std::unordered_map<uint64_t, uint32_t> by_key_;  // canonical key -> slot
  std::unordered_set<FactId> self_inconsistent_;
  std::unordered_map<FactId, size_t> problematic_count_;  // live memberships
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_INCREMENTAL_H_
