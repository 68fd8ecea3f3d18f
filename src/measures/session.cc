#include "measures/session.h"

#include <algorithm>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/timer.h"

namespace dbim {

namespace {

// Apply runs the auto-vacuum check only every this many operations,
// because PoolWasteLocked marks every cell of every registered database in
// a pool-sized vector. Subset slots need no such check: each index's Apply
// compacts its own store.
constexpr size_t kAutoVacuumCheckInterval = 64;

}  // namespace

const MeasureResult* BatchReport::Find(const std::string& name) const {
  for (const MeasureResult& r : measures) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

MeasureSession::MeasureSession(std::shared_ptr<const Schema> schema,
                               std::vector<DenialConstraint> constraints,
                               SessionOptions options)
    : schema_(std::move(schema)),
      detector_(schema_, std::move(constraints), options.detector),
      measures_(CreateMeasures(options.registry)),
      options_(std::move(options)),
      pool_(std::make_shared<ValuePool>()) {}

MeasureSession::HandleState& MeasureSession::State(DbHandle handle) {
  DBIM_CHECK_MSG(handle < handles_.size() && handles_[handle] != nullptr,
                 "invalid or unregistered handle %u", handle);
  return *handles_[handle];
}

const MeasureSession::HandleState& MeasureSession::State(
    DbHandle handle) const {
  DBIM_CHECK_MSG(handle < handles_.size() && handles_[handle] != nullptr,
                 "invalid or unregistered handle %u", handle);
  return *handles_[handle];
}

DbHandle MeasureSession::Register(const Database& db) {
  Database copy = db;  // copy, then re-key
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  copy.ReinternInto(pool_);
  // Incremental maintenance covers any constraint arity: binary Sigma
  // probes blocking buckets, k-ary Sigma re-enumerates witnesses through
  // the changed fact.
  auto state = std::make_unique<HandleState>(
      std::move(copy), schema_, detector_.constraints(), options_.detector);
  const DbHandle handle = static_cast<DbHandle>(handles_.size());
  handles_.push_back(std::move(state));
  ++num_registered_;
  return handle;
}

void MeasureSession::Unregister(DbHandle handle) {
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  State(handle);  // validity check
  handles_[handle] = nullptr;
  --num_registered_;
}

const Database& MeasureSession::db(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  return State(handle).db;
}

size_t MeasureSession::num_registered() const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  return num_registered_;
}

size_t MeasureSession::num_stored_subset_slots(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.incremental.NumStoredSlots();
}

std::vector<SessionConstraintStats> MeasureSession::ConstraintStats(
    DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  const std::vector<DenialConstraint>& constraints = detector_.constraints();
  std::vector<SessionConstraintStats> out;
  out.reserve(constraints.size());
  for (size_t c = 0; c < constraints.size(); ++c) {
    SessionConstraintStats s;
    s.constraint = constraints[c].ToString(*schema_);
    const IncrementalConstraintStats ics =
        state.incremental.ConstraintStatsFor(c);
    s.num_probes = ics.num_probes;
    s.num_fires = ics.num_fires;
    s.watcher_count = ics.watcher_count;
    out.push_back(std::move(s));
  }
  return out;
}

IncrementalDispatchStats MeasureSession::DispatchStats(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.incremental.dispatch_stats();
}

std::optional<FactId> MeasureSession::Apply(DbHandle handle,
                                            const RepairOperation& op) {
  std::optional<FactId> inserted;
  {
    std::shared_lock<std::shared_mutex> session(session_mu_);
    HandleState& state = State(handle);
    std::lock_guard<std::mutex> handle_lock(state.mu);
    // WAL-before-mutate: the durability hook makes the operation durable
    // under both locks, so a record on disk always precedes its effect and
    // per-handle log order equals mutation order. Checkpoints (exclusive
    // lock) can never interleave between this append and the mutation.
    if (options_.durability != nullptr) {
      options_.durability->OnApply(handle, op);
    }
    inserted = state.incremental.Apply(op);
  }
  // The auto-vacuum hook runs with no lock held (Vacuum takes the session
  // lock exclusively itself), so an Apply that triggers it can never
  // deadlock against another in-flight Apply. The monotonic counter's
  // modulo makes exactly one thread per check window pay the exclusive
  // waste scan, however many Applies race across the boundary.
  const size_t op_index =
      ops_since_vacuum_check_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (options_.auto_vacuum_threshold > 0.0 &&
      op_index % kAutoVacuumCheckInterval == 0) {
    Vacuum(options_.auto_vacuum_threshold);
  }
  // Auto-checkpoint rides the same lock-free window: when the durability
  // hook reports the WAL has grown past its budget, run a Vacuum with an
  // impossible waste threshold — the pool is left alone (waste is < 1 by
  // construction) but OnCheckpoint fires under the exclusive lock.
  if (options_.durability != nullptr && options_.durability->WantsCheckpoint()) {
    Vacuum(1.0);
  }
  return inserted;
}

size_t MeasureSession::NumFacts(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.db.size();
}

size_t MeasureSession::NumMinimalSubsets(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.incremental.NumMinimalSubsets();
}

std::vector<std::pair<FactId, std::vector<Value>>> MeasureSession::CopyFacts(
    DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  std::vector<FactId> ids = state.db.ids();
  std::sort(ids.begin(), ids.end());
  std::vector<std::pair<FactId, std::vector<Value>>> rows;
  rows.reserve(ids.size());
  for (const FactId id : ids) {
    rows.emplace_back(id, state.db.fact(id).values());
  }
  return rows;
}

std::vector<MeasureResult> MeasureSession::Evaluate(
    MeasureContext& context) const {
  std::vector<MeasureResult> results(measures_.size());
  auto evaluate_one = [&](size_t i) {
    MeasureResult& r = results[i];
    r.name = measures_[i]->name();
    Timer timer;
    r.value = measures_[i]->Evaluate(context);
    r.seconds = timer.Seconds();
  };
  if (!options_.parallel_measures || measures_.size() <= 1) {
    for (size_t i = 0; i < measures_.size(); ++i) evaluate_one(i);
    return results;
  }
  // Concurrent evaluation: materialize the context's lazy members first so
  // every worker strictly reads shared state (and no measure's timer
  // absorbs detection or the conflict-graph build), then run one task per
  // measure. Each task writes only its own results slot, so registry order
  // needs no consume step.
  context.Materialize();
  const size_t threads =
      std::min(measures_.size(), ThreadPool::HardwareThreads());
  OrderedStealingFor(
      threads, measures_.size(), 1,
      [&](IndexRange range) {
        for (size_t i = range.begin; i < range.end; ++i) evaluate_one(i);
      },
      [](IndexRange) {});
  return results;
}

BatchReport MeasureSession::ReportOn(MeasureContext& context,
                                     double detection_seconds) const {
  BatchReport report;
  const ViolationSet& violations = context.violations();
  report.detection_seconds = detection_seconds;
  report.num_facts = context.db().size();
  report.num_minimal_subsets = violations.num_minimal_subsets();
  report.measures = Evaluate(context);
  return report;
}

BatchReport MeasureSession::EvaluateState(const HandleState& state) const {
  std::lock_guard<std::mutex> handle_lock(state.mu);
  Timer snapshot;
  MeasureContext context(detector_, state.db, state.incremental.Snapshot());
  return ReportOn(context, snapshot.Seconds());
}

BatchReport MeasureSession::Evaluate(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  return EvaluateState(State(handle));
}

std::vector<BatchReport> MeasureSession::EvaluateAll(
    const std::vector<DbHandle>& handles) const {
  // The shared session lock is held across the loop, so the handle table
  // and pool identity are stable; EvaluateState takes each handle's lock.
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  std::vector<BatchReport> reports;
  reports.reserve(handles.size());
  for (const DbHandle handle : handles) {
    reports.push_back(EvaluateState(State(handle)));
  }
  return reports;
}

BatchReport MeasureSession::EvaluateOne(const Database& db) const {
  Timer detection;
  MeasureContext context(detector_, db);
  context.violations();
  return ReportOn(context, detection.Seconds());
}

ViolationSet MeasureSession::Violations(DbHandle handle) const {
  std::shared_lock<std::shared_mutex> lock(session_mu_);
  const HandleState& state = State(handle);
  std::lock_guard<std::mutex> handle_lock(state.mu);
  return state.incremental.Snapshot();
}

double MeasureSession::PoolWasteLocked() const {
  if (pool_->size() <= 1) return 0.0;
  std::vector<char> used(pool_->size(), 0);
  used[kNullValueId] = 1;
  for (const auto& state : handles_) {
    if (state != nullptr) state->db.MarkUsedValueIds(used);
  }
  size_t used_count = 0;
  for (const char u : used) used_count += u;
  return 1.0 - static_cast<double>(used_count) /
                   static_cast<double>(pool_->size());
}

double MeasureSession::PoolWaste() const {
  // Exclusive: the scan reads every registered database's columns, which
  // concurrent Applies mutate.
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  return PoolWasteLocked();
}

bool MeasureSession::VacuumLocked(double waste_threshold) {
  bool compacted = false;
  if (PoolWasteLocked() > waste_threshold) {
    // Re-intern every registered database into one fresh pool, in handle
    // order: values shared across databases are interned once, dead
    // entries are dropped. FactId-keyed violation state survives
    // untouched; each index's class-keyed buckets are rebuilt by its next
    // Apply.
    auto fresh = std::make_shared<ValuePool>();
    for (auto& state : handles_) {
      if (state != nullptr) state->db.ReinternInto(fresh);
    }
    pool_ = std::move(fresh);
    num_vacuums_.fetch_add(1, std::memory_order_relaxed);
    compacted = true;
  }
  // Slot compaction rides along: each index's Apply already keeps its
  // dead subset slots at most half its slots, and a lower threshold
  // tightens that here.
  for (auto& state : handles_) {
    if (state != nullptr) {
      state->incremental.CompactSlotsIfWasteful(waste_threshold);
    }
  }
  // Retired dictionary slabs ride along too: growth retires (never frees)
  // slabs so lock-free readers stay valid, and the exclusive session lock
  // held here is exactly the no-readers window where freeing them is
  // legal. This also covers a freshly rebuilt pool, which accumulated
  // retired slabs while growing during the re-intern above.
  pool_->ReclaimRetiredSlabs();
  // Checkpoint: under the exclusive lock no Apply is in flight and no WAL
  // append can race the segment rewrite — the durable store snapshots
  // every live database (post-compaction ids and pool) and truncates the
  // log here.
  if (options_.durability != nullptr) {
    std::vector<std::pair<DbHandle, const Database*>> databases;
    databases.reserve(num_registered_);
    for (size_t h = 0; h < handles_.size(); ++h) {
      if (handles_[h] != nullptr) {
        databases.emplace_back(static_cast<DbHandle>(h), &handles_[h]->db);
      }
    }
    options_.durability->OnCheckpoint(databases);
  }
  return compacted;
}

TablePrinter ConstraintStatsTable(
    const std::vector<SessionConstraintStats>& stats) {
  TablePrinter table({"constraint", "probes", "fires", "watchers"});
  for (const SessionConstraintStats& s : stats) {
    table.AddRow({s.constraint, std::to_string(s.num_probes),
                  std::to_string(s.num_fires),
                  std::to_string(s.watcher_count)});
  }
  return table;
}

bool MeasureSession::Vacuum(double waste_threshold) {
  // Exclusive session lock: equivalent to holding every handle lock, so
  // in-flight Applies and Evaluates drain before the pool and the indices
  // are rebuilt, and new ones wait.
  std::unique_lock<std::shared_mutex> lock(session_mu_);
  return VacuumLocked(waste_threshold);
}

}  // namespace dbim
