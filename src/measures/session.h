#ifndef DBIM_MEASURES_SESSION_H_
#define DBIM_MEASURES_SESSION_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.h"
#include "measures/measure.h"
#include "measures/registry.h"
#include "relational/database.h"
#include "violations/detector.h"
#include "violations/incremental.h"

namespace dbim {

/// Handle to a database registered with a MeasureSession.
using DbHandle = uint32_t;

/// Optional durability callbacks a MeasureSession invokes around its
/// mutation path (see SessionOptions::durability). Implemented by
/// storage::DurableSessionStore; the session itself stays storage-agnostic.
///
/// Contract:
///  * OnApply runs inside Apply, under the session (shared) and handle
///    locks, BEFORE the operation mutates the handle's database — so a
///    record made durable here always precedes its effect, and per-handle
///    WAL order equals per-handle mutation order. Called concurrently for
///    distinct handles; must not call back into the session.
///  * OnCheckpoint runs at the end of Vacuum under the exclusive session
///    lock (no Apply in flight, no WAL append racing the segment rewrite):
///    the quiescent point where segments are rewritten and the log
///    truncated. `databases` holds every live handle.
///  * WantsCheckpoint is polled by Apply after both locks are released;
///    returning true triggers a Vacuum (and therefore OnCheckpoint).
class SessionDurabilityHook {
 public:
  virtual ~SessionDurabilityHook() = default;
  virtual void OnApply(DbHandle handle, const RepairOperation& op) = 0;
  virtual void OnCheckpoint(
      const std::vector<std::pair<DbHandle, const Database*>>& databases) = 0;
  virtual bool WantsCheckpoint() const { return false; }
};

/// Sliding-window configuration for streaming measurement (consumed by
/// streaming::StreamSession and the service's windowed tenants; the
/// session core itself ignores it). size == 0 disables windowing.
struct WindowSpec {
  enum class Kind {
    kCount,  // keep the most recent `size` facts
    kTicks,  // keep facts whose tick is within `size` of the current tick
  };
  Kind kind = Kind::kCount;
  uint64_t size = 0;

  bool enabled() const { return size > 0; }
};

/// Sampling-estimator configuration (consumed by streaming::ApproxEvaluator
/// and the service's EVALUATE APPROX path). eps == 0 disables approximation;
/// see ApproxOptions for the semantics of each field.
struct ApproxSpec {
  double eps = 0.0;
  double confidence = 0.95;
  uint64_t seed = 42;

  bool enabled() const { return eps > 0.0; }
};

/// Every knob of a measure session in one flat, documented struct: measure
/// selection, detection, evaluation strategy, maintenance and durability.
/// Plain aggregate — set fields directly, or chain the builder-style
/// setters for the common ones:
///
///   MeasureSession session(schema, sigma,
///                          SessionOptions().WithThreads(8)
///                                          .WithParallelMeasures()
///                                          .WithAutoVacuum(0.5));
struct SessionOptions {
  /// Measure selection (`registry.only`: the measures constructed are
  /// exactly the ones evaluated) and per-measure budgets (I_MC / I_R
  /// deadlines).
  RegistryOptions registry;

  /// Knobs for the shared detection pass (`num_threads` for its
  /// fan-outs — reports are identical for every thread count; see
  /// DetectorOptions).
  DetectorOptions detector;

  /// Evaluate independent measures concurrently on the shared context (one
  /// task per measure on the process-wide pool, capped at the
  /// hardware thread count). The context is materialized first, so workers
  /// only read shared state; every measure is a pure function of it, so
  /// values and result order are bit-identical to sequential evaluation —
  /// only the per-measure wall times overlap. Orthogonal to
  /// detector.num_threads, which parallelizes the detection pass itself.
  bool parallel_measures = false;

  /// Auto-vacuum hook: when > 0, Apply periodically checks the shared
  /// pool's waste (the fraction of dictionary entries no registered
  /// database references — sustained value churn grows it) and, past the
  /// threshold, rebuilds the pool and remaps every registered database
  /// together, also compacting each incremental index's dead subset slots.
  /// Measure reports are invariant under both compactions. 0 disables.
  double auto_vacuum_threshold = 0.0;

  /// Durability callbacks (borrowed, not owned; must outlive the session).
  /// nullptr — the default — keeps the session fully in-memory: no WAL
  /// append on Apply, no checkpoint on Vacuum, zero overhead.
  SessionDurabilityHook* durability = nullptr;

  /// Sliding-window mode for the streaming layer: when enabled, the
  /// service wraps each registered handle in a StreamSession and dbim_cli
  /// replays its input through one. Disabled by default.
  WindowSpec window;

  /// Default sampling-estimator knobs for EVALUATE APPROX / --approx.
  /// Disabled by default; an explicit `EVALUATE <s> APPROX <eps>` request
  /// overrides eps per call.
  ApproxSpec approx;

  // Builder-style setters (each returns *this for chaining).

  /// Detection threads (DetectorOptions::num_threads).
  SessionOptions& WithThreads(size_t n) {
    detector.num_threads = n;
    return *this;
  }
  SessionOptions& WithParallelMeasures(bool on = true) {
    parallel_measures = on;
    return *this;
  }
  /// Restricts evaluation to one more named measure (appends to
  /// registry.only).
  SessionOptions& WithMeasure(std::string name) {
    registry.WithMeasure(std::move(name));
    return *this;
  }
  SessionOptions& WithIncludeMC(bool on = true) {
    registry.include_mc = on;
    return *this;
  }
  SessionOptions& WithRepairDeadline(double seconds) {
    registry.repair_deadline_seconds = seconds;
    return *this;
  }
  SessionOptions& WithAutoVacuum(double waste_threshold) {
    auto_vacuum_threshold = waste_threshold;
    return *this;
  }
  SessionOptions& WithDurability(SessionDurabilityHook* hook) {
    durability = hook;
    return *this;
  }
  SessionOptions& WithWindow(WindowSpec::Kind kind, uint64_t size) {
    window.kind = kind;
    window.size = size;
    return *this;
  }
  SessionOptions& WithApprox(double eps) {
    approx.eps = eps;
    return *this;
  }
};

/// Value of one measure plus the time evaluation took on the shared
/// context (detection excluded; see BatchReport::detection_seconds).
struct MeasureResult {
  std::string name;
  double value = 0.0;
  double seconds = 0.0;
};

/// Result of evaluating a registry over one (Sigma, D) pair.
struct BatchReport {
  /// Wall time spent obtaining MI_Sigma(D): the single FindViolations pass,
  /// or — on a session handle — the snapshot of the maintained set.
  double detection_seconds = 0.0;
  /// |D|, read in the same locked read as the measures.
  size_t num_facts = 0;
  size_t num_minimal_subsets = 0;
  /// Always false: detection runs to completion. Kept because the EVALUATE
  /// reply carries it as a wire token (always `0`).
  bool truncated = false;
  std::vector<MeasureResult> measures;

  /// The entry named `name`, or nullptr.
  const MeasureResult* Find(const std::string& name) const;
};

/// Per-constraint maintenance counters surfaced by
/// MeasureSession::ConstraintStats: partner candidates examined (probes),
/// subsets contributed (fires) and the constraint's live watcher/bucket-key
/// footprint, all from the handle's incremental index.
struct SessionConstraintStats {
  std::string constraint;  // rendered denial constraint
  uint64_t num_probes = 0;
  uint64_t num_fires = 0;
  size_t watcher_count = 0;
};

/// A long-lived, multi-database evaluation session: owns (Sigma, the
/// instantiated measure registry, options) plus one shared ValuePool for
/// every database registered with it.
///
/// Real measurement workloads are trajectories, not one-shots: the noise
/// benches evaluate the same (Sigma, schema) over dozens of mutated
/// samples, and repair loops re-measure after every operation. Detection
/// dominates each evaluation (paper Section 6.2.3), so the session
/// amortizes detection *state* across the trajectory:
///
///  * `Register(db)` re-interns the database onto the session pool and
///    builds an IncrementalViolationIndex on the shared eval kernel:
///    binary constraints keep shared blocking buckets, with partner
///    indexes inside them, across operations, k-ary constraints
///    re-enumerate witnesses through the changed fact (anchored
///    enumeration);
///  * `Apply(handle, op)` mutates in place and maintains MI_Sigma(D) at
///    the cost of the changed fact's partners (binary) / O(k n^{k-1})
///    (k-ary) per operation instead of re-detecting;
///  * `Evaluate(handle)` reports all measures; the "detection" step is a
///    snapshot of the maintained set. Reports are bit-identical to
///    EvaluateOne over an equal database;
///  * `EvaluateAll(handles)` evaluates several databases in one call
///    (e.g. a trajectory's sample points), one report per handle;
///  * the auto-vacuum hook compacts the shared pool (and the incremental
///    indices' dead slots) during long mutation loops, remapping all
///    registered databases together.
///
/// Thread safety — independent trajectories mutate concurrently:
///
///  * every public method may be called from any thread. Register,
///    Unregister, Vacuum and PoolWaste take the session lock exclusively
///    (equivalent to holding every handle lock); Apply, Evaluate,
///    EvaluateAll and Violations take it shared plus the per-handle lock,
///    so `Apply` on *distinct* handles proceeds in parallel — the shared
///    pool accepts concurrent interning (see ValuePool) — while operations
///    on the *same* handle serialize;
///  * the lock order is session-then-handle everywhere, and the
///    auto-vacuum hook runs after Apply has released both, so no cycle
///    exists;
///  * results are unaffected by interleaving: per-handle state depends
///    only on that handle's operation sequence, and nothing observable
///    depends on raw ValueId numbering (equality is by semantic class, the
///    incremental buckets hash value semantics, reports are fact-id sets
///    and measure values). Reports under concurrent mutation are
///    bit-identical to applying the same per-handle sequences one by one.
///
/// `db(handle)` returns a reference into session storage with no lock
/// held. It is only safe to read while no other thread mutates the
/// session: a concurrent Apply to the same handle writes the columns, a
/// concurrent Apply to *any* handle can trigger auto-vacuum (which
/// rewrites every registered database), and Unregister destroys the
/// storage outright. Under concurrent mutation, use Evaluate/Violations
/// (which lock) instead of holding the raw reference.
class MeasureSession {
 public:
  MeasureSession(std::shared_ptr<const Schema> schema,
                 std::vector<DenialConstraint> constraints,
                 SessionOptions options = {});

  const ViolationDetector& detector() const { return detector_; }
  const std::shared_ptr<const Schema>& schema() const { return schema_; }
  const std::vector<std::unique_ptr<InconsistencyMeasure>>& measures() const {
    return measures_;
  }
  const ValuePool& pool() const { return *pool_; }

  /// Registers a copy of `db`, re-interned onto the session pool. Row order
  /// is preserved, so detection results match the original database
  /// exactly.
  DbHandle Register(const Database& db);

  /// Drops a handle (its database and incremental state).
  void Unregister(DbHandle handle);

  /// The session's live view of a registered database.
  const Database& db(DbHandle handle) const;

  size_t num_registered() const;

  /// Applies a repairing operation to the handle's database, maintaining
  /// its incremental violation index, and runs the auto-vacuum hook. Safe
  /// to call concurrently for distinct handles.
  /// Returns the identifier an insertion was stored under (the minimal
  /// unused id — what a remote client needs to address the fact later);
  /// nullopt for deletions, updates and inapplicable operations.
  std::optional<FactId> Apply(DbHandle handle, const RepairOperation& op);

  /// Evaluates every measure over the handle's database. No detection pass
  /// runs — the maintained MI set is snapshotted instead.
  BatchReport Evaluate(DbHandle handle) const;

  /// Batch evaluation across databases: one report per handle, in handle
  /// order, each bit-identical to calling Evaluate on it.
  std::vector<BatchReport> EvaluateAll(
      const std::vector<DbHandle>& handles) const;

  /// One-shot evaluation of an unregistered database on its own pool: a
  /// full detection pass plus the measure suite — the "fresh" baseline the
  /// session's amortized path is benchmarked against.
  BatchReport EvaluateOne(const Database& db) const;

  /// Evaluates the measures on a caller-provided context (which may
  /// already hold cached violations — no re-detection happens here).
  std::vector<MeasureResult> Evaluate(MeasureContext& context) const;

  /// The handle's current MI_Sigma(D): a snapshot of the maintained set.
  /// Feed it to a MeasureContext to share with Shapley ranking or repair
  /// planning.
  ViolationSet Violations(DbHandle handle) const;

  /// Fraction of shared-pool entries no registered database references.
  double PoolWaste() const;

  /// Rebuilds the shared pool without dead entries and remaps every
  /// registered database together when PoolWaste() exceeds the threshold;
  /// also compacts each incremental index's dead subset slots past the
  /// same threshold. Returns whether pool compaction ran. Reports are
  /// unaffected: subsets are FactId sets and the incremental buckets hash
  /// value semantics, which the re-intern preserves.
  bool Vacuum(double waste_threshold);

  /// Number of (auto or manual) vacuums that compacted the pool.
  size_t num_vacuums() const {
    return num_vacuums_.load(std::memory_order_relaxed);
  }

  /// Full FindViolations passes run on behalf of registered handles:
  /// always 0, since every handle owns an incremental index and Evaluate
  /// snapshots it. Kept for callers that assert it. (EvaluateOne, serving
  /// unregistered databases, never counted.)
  size_t num_full_detections() const { return 0; }

  /// Stored (live + dead) subset slots of the handle's incremental index.
  /// Dead slots accumulate under churn until a vacuum compacts them — the
  /// bound the churn regression tests assert.
  size_t num_stored_subset_slots(DbHandle handle) const;

  /// Number of live facts in the handle's database, read under the session
  /// and handle locks (unlike `db(handle).size()`, safe while other
  /// clients mutate or vacuum).
  size_t NumFacts(DbHandle handle) const;

  /// |MI_Sigma(D)| of the handle right now, O(1) from the maintained
  /// counter. The cheap signal the service's SUBSCRIBE watchers poll after
  /// every Apply and window slide.
  size_t NumMinimalSubsets(DbHandle handle) const;

  /// Runs `fn(const Database&)` on the handle's database under the session
  /// (shared) and handle locks — the safe way for a layered subsystem
  /// (e.g. the streaming ApproxEvaluator) to read a registered database
  /// consistently while other handles mutate or a vacuum waits. `fn` must
  /// not call back into the session.
  template <typename Fn>
  auto WithDatabase(DbHandle handle, Fn&& fn) const {
    std::shared_lock<std::shared_mutex> lock(session_mu_);
    const HandleState& state = State(handle);
    std::lock_guard<std::mutex> handle_lock(state.mu);
    return fn(static_cast<const Database&>(state.db));
  }

  /// A locked copy of the handle's facts as (id, cells) rows in ascending
  /// id order — what the service DUMP verb ships so a remote client can
  /// reconstruct an equal database (InsertWithId preserves identifiers).
  std::vector<std::pair<FactId, std::vector<Value>>> CopyFacts(
      DbHandle handle) const;

  /// Per-constraint probe/fire/watcher counters for the handle, one entry
  /// per constraint in registration order (see SessionConstraintStats).
  std::vector<SessionConstraintStats> ConstraintStats(DbHandle handle) const;

  /// Watched-dispatch totals of the handle's incremental index (ops
  /// applied, constraints probed vs skipped).
  IncrementalDispatchStats DispatchStats(DbHandle handle) const;

 private:
  struct HandleState {
    // Serializes Apply/Evaluate on this handle; taken after the session
    // lock (shared) by both.
    mutable std::mutex mu;
    Database db;
    // Maintains MI_Sigma(db); points at `db` (non-owning), so it is
    // declared after it.
    IncrementalViolationIndex incremental;

    HandleState(Database database, std::shared_ptr<const Schema> schema,
                const std::vector<DenialConstraint>& constraints,
                const DetectorOptions& options)
        : db(std::move(database)),
          incremental(std::move(schema), constraints, &db, options) {}
  };

  HandleState& State(DbHandle handle);
  const HandleState& State(DbHandle handle) const;
  BatchReport ReportOn(MeasureContext& context, double detection_seconds) const;
  // Locks the handle's mutex for the duration of the evaluation.
  BatchReport EvaluateState(const HandleState& state) const;
  double PoolWasteLocked() const;
  bool VacuumLocked(double waste_threshold);

  std::shared_ptr<const Schema> schema_;
  ViolationDetector detector_;
  std::vector<std::unique_ptr<InconsistencyMeasure>> measures_;
  SessionOptions options_;
  std::shared_ptr<ValuePool> pool_;

  // Guards the handle table and the shared pool's identity: shared for
  // per-handle work (Apply/Evaluate/Violations), exclusive for structural
  // changes (Register/Unregister/Vacuum/PoolWaste).
  mutable std::shared_mutex session_mu_;
  // unique_ptr entries: the incremental index holds a pointer into its
  // HandleState's database, so states must not move when the table grows.
  std::vector<std::unique_ptr<HandleState>> handles_;
  size_t num_registered_ = 0;
  std::atomic<size_t> num_vacuums_{0};
  std::atomic<size_t> ops_since_vacuum_check_{0};
};

/// Renders per-constraint stats rows as a table — header {constraint,
/// probes, fires, watchers} — so every surface that reports them
/// (dbim_cli --stats, the service STATS verb, the load generator) shares
/// one text and one machine-readable (TablePrinter::ToJson) form.
TablePrinter ConstraintStatsTable(
    const std::vector<SessionConstraintStats>& stats);

}  // namespace dbim

#endif  // DBIM_MEASURES_SESSION_H_
