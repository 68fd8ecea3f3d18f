// Parity fuzz for the MeasureSession API: along randomized mutation
// trajectories, every session report — batched or per-handle, vacuumed or
// not, at any thread count — must be bit-identical (measure values, subset
// counts; timings aside) to a fresh EvaluateOne of an equal database. This is
// the enforcement arm of the session's "amortized but exact" contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "constraints/parser.h"
#include "constraints/predicate.h"
#include "measures/session.h"
#include "relational/operations.h"
#include "test_util.h"

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

// Exact report equality: counts, flags, measure names/order and values.
// Timings are wall clock and excluded.
void ExpectIdenticalReports(const BatchReport& expected,
                            const BatchReport& actual,
                            const std::string& where) {
  EXPECT_EQ(expected.num_minimal_subsets, actual.num_minimal_subsets)
      << where;
  ASSERT_EQ(expected.measures.size(), actual.measures.size()) << where;
  for (size_t m = 0; m < expected.measures.size(); ++m) {
    EXPECT_EQ(expected.measures[m].name, actual.measures[m].name) << where;
    EXPECT_EQ(expected.measures[m].value, actual.measures[m].value)
        << where << " measure " << expected.measures[m].name;
  }
}

// The random mutation script lives in tests/test_util.h (ScriptedWorkload)
// so the watched-dispatch and service suites replay the same distribution.
using testing::ScriptedWorkload;
using testing::ScriptedWorkloadOptions;

ScriptedWorkloadOptions WorkloadDomain(int64_t domain, bool churn = false) {
  ScriptedWorkloadOptions options;
  options.domain = domain;
  options.churn = churn;
  return options;
}

// Drives a session handle and a mirror database through one random
// trajectory, asserting session reports match a fresh EvaluateOne on the
// mirror at every sample point.
void RunTrajectoryParity(std::shared_ptr<const Schema> schema,
                         const std::vector<DenialConstraint>& dcs,
                         const Database& start, SessionOptions options,
                         size_t num_ops, uint64_t seed, bool churn,
                         size_t* vacuums_out, const std::string& where) {
  MeasureSession session(schema, dcs, options);
  const DbHandle handle = session.Register(start);
  const MeasureSession fresh(schema, dcs, options);
  Database mirror = start;
  EXPECT_TRUE(session.db(handle) == mirror) << where << " post-register";

  ScriptedWorkload workload(seed, WorkloadDomain(6, churn));
  for (size_t op_index = 0; op_index < num_ops; ++op_index) {
    const RepairOperation op = workload.Next(session.db(handle));
    session.Apply(handle, op);
    op.ApplyInPlace(mirror);
    if (op_index % 5 != 4 && op_index + 1 != num_ops) continue;
    const std::string at = where + " op=" + std::to_string(op_index);
    EXPECT_TRUE(session.db(handle) == mirror) << at;
    ExpectIdenticalReports(fresh.EvaluateOne(mirror),
                           session.Evaluate(handle), at);
  }
  if (vacuums_out != nullptr) *vacuums_out = session.num_vacuums();
}

class SessionFuzz : public ::testing::TestWithParam<size_t> {};

// Binary Sigma: the incremental path (blocking probes, multiplicity
// bookkeeping, snapshot contexts) against fresh full detection, across
// thread counts and noise levels.
TEST_P(SessionFuzz, BinaryTrajectoryMatchesFreshEngine) {
  const size_t threads = GetParam();
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  // Two seeds x two domains x four thread counts keeps the TSan build of
  // this suite well inside the CI timeout.
  for (const uint64_t seed : {21u, 22u}) {
    for (const int64_t domain : {3, 12}) {
      const Database start = MakeRandomDatabase(schema, 0, 50, domain, seed);
      SessionOptions options;
      options.registry.include_mc = true;  // small db: exact counts
      options.detector.num_threads = threads;
      RunTrajectoryParity(schema, dcs, start, options, 40, seed * 7 + domain,
                          /*churn=*/false, nullptr,
                          "binary threads=" + std::to_string(threads) +
                              " seed=" + std::to_string(seed) +
                              " domain=" + std::to_string(domain));
    }
  }
  // Weighted: non-dyadic deletion costs make the repair measures' sums
  // round, so I_R and I_lin_R match the fresh engine with == only if
  // neither the snapshot's subset order (maintenance order, not discovery
  // order) nor the max-flow's arc order reaches the arithmetic.
  for (const int64_t domain : {3, 12}) {
    Database start = MakeRandomDatabase(schema, 0, 50, domain, 23);
    for (const FactId id : start.ids()) {
      start.set_deletion_cost(id, 0.1 * (1 + id % 7));
    }
    SessionOptions options;
    options.registry.only = {"I_R", "I_lin_R"};
    options.detector.num_threads = threads;
    ASSERT_EQ(MeasureSession(schema, dcs, options).EvaluateOne(start)
                  .measures.size(),
              2u);
    RunTrajectoryParity(schema, dcs, start, options, 40, 23 * 7 + domain,
                        /*churn=*/false, nullptr,
                        "weighted threads=" + std::to_string(threads) +
                            " domain=" + std::to_string(domain));
  }
}

// K-ary Sigma runs on incremental maintenance too (anchored witness
// re-enumeration through the changed fact): reports must match a fresh
// engine across the whole trajectory.
TEST_P(SessionFuzz, KAryTrajectoryIsIncrementalAndMatchesFreshEngine) {
  const size_t threads = GetParam();
  const auto schema = MakeAbcSchema();
  // !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C)
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  std::vector<DenialConstraint> dcs;
  dcs.emplace_back(std::vector<RelationId>(3, 0), std::move(preds));
  const Database start = MakeRandomDatabase(schema, 0, 30, 4, 31);
  SessionOptions options;
  options.registry.include_mc = false;  // hyperedge MC is costly
  options.detector.num_threads = threads;
  RunTrajectoryParity(schema, dcs, start, options, 25, 97 + threads,
                      /*churn=*/false, nullptr,
                      "k-ary threads=" + std::to_string(threads));
}

// Value churn with an aggressive auto-vacuum threshold: the vacuum must
// actually fire (the hook is real) and every report must stay identical to
// the fresh engine on an un-vacuumed mirror — compaction is invisible.
TEST_P(SessionFuzz, AutoVacuumKeepsReportsIdentical) {
  const size_t threads = GetParam();
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  const Database start = MakeRandomDatabase(schema, 0, 40, 5, 61);
  SessionOptions options;
  options.registry.include_mc = false;
  options.detector.num_threads = threads;
  options.auto_vacuum_threshold = 0.05;
  size_t vacuums = 0;
  RunTrajectoryParity(schema, dcs, start, options, 400, 71,
                      /*churn=*/true, &vacuums,
                      "vacuum threads=" + std::to_string(threads));
  EXPECT_GT(vacuums, 0u) << "auto-vacuum hook never fired";
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, SessionFuzz,
                         ::testing::Values(1, 2, 4, 8));

// Cross-database batch evaluation: EvaluateAll over several independently
// mutated handles must reproduce the per-handle Evaluate reports (and
// transitively the fresh engine's).
TEST(SessionBatch, EvaluateAllMatchesPerHandle) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  SessionOptions options;
  options.registry.include_mc = false;
  options.detector.num_threads = 2;
  options.parallel_measures = true;  // nested fan-out
  MeasureSession session(schema, dcs, options);
  const MeasureSession fresh(schema, dcs, options);
  std::vector<DbHandle> handles;
  std::vector<Database> mirrors;
  ScriptedWorkload workload(5, WorkloadDomain(5));
  for (int d = 0; d < 3; ++d) {
    const Database start =
        MakeRandomDatabase(schema, 0, 30 + 10 * d, 4, 100 + d);
    handles.push_back(session.Register(start));
    mirrors.push_back(start);
  }
  for (size_t i = 0; i < handles.size(); ++i) {
    for (int op_count = 0; op_count < 8; ++op_count) {
      const RepairOperation op = workload.Next(session.db(handles[i]));
      session.Apply(handles[i], op);
      op.ApplyInPlace(mirrors[i]);
    }
  }
  const std::vector<BatchReport> batch = session.EvaluateAll(handles);
  ASSERT_EQ(batch.size(), handles.size());
  for (size_t i = 0; i < handles.size(); ++i) {
    const std::string where = "handle=" + std::to_string(i);
    ExpectIdenticalReports(session.Evaluate(handles[i]), batch[i], where);
    ExpectIdenticalReports(fresh.EvaluateOne(mirrors[i]), batch[i],
                           where + " vs fresh");
  }
}

// Unregister frees the handle; the remaining handles are unaffected, and
// a session-wide manual vacuum after the unregister drops the dead
// handle's exclusive values.
TEST(SessionBatch, UnregisterAndManualVacuum) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  SessionOptions options;
  options.registry.include_mc = false;
  MeasureSession session(schema, dcs, options);
  const MeasureSession fresh(schema, dcs, options);

  const Database a = MakeRandomDatabase(schema, 0, 40, 3, 7);
  const Database b = MakeRandomDatabase(schema, 0, 40, 200, 8);
  const DbHandle ha = session.Register(a);
  const DbHandle hb = session.Register(b);
  EXPECT_EQ(session.num_registered(), 2u);

  session.Unregister(hb);
  EXPECT_EQ(session.num_registered(), 1u);
  // b's wide domain is now dead weight in the shared pool.
  EXPECT_GT(session.PoolWaste(), 0.0);
  EXPECT_TRUE(session.Vacuum(0.0));
  EXPECT_EQ(session.num_vacuums(), 1u);
  EXPECT_DOUBLE_EQ(session.PoolWaste(), 0.0);
  ExpectIdenticalReports(fresh.EvaluateOne(a), session.Evaluate(ha),
                         "post-vacuum");
}

// Slab reclaim rides the vacuum: dictionary growth retires slabs that
// nothing frees on the append-only fast path, and the vacuum's exclusive
// lock is the window where the pool hands them back. The slab count must
// drop to one live slab per pool array, with reports untouched.
TEST(SessionBatch, VacuumReclaimsRetiredPoolSlabs) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  SessionOptions options;
  options.registry.include_mc = false;
  MeasureSession session(schema, dcs, options);
  const MeasureSession fresh(schema, dcs, options);

  const Database start = MakeRandomDatabase(schema, 0, 30, 3, 61);
  const DbHandle handle = session.Register(start);
  Database mirror = start;
  ScriptedWorkload workload(62, WorkloadDomain(3, /*churn=*/true));
  // Churn fresh string values until the shared pool has outgrown its
  // initial slab a few times (capacity 1024 per array).
  while (session.pool().size() < 2500) {
    const RepairOperation op = workload.Next(session.db(handle));
    session.Apply(handle, op);
    op.ApplyInPlace(mirror);
  }
  EXPECT_GT(session.pool().num_slabs(), 3u);

  session.Vacuum(/*waste_threshold=*/0.0);
  EXPECT_EQ(session.pool().num_slabs(), 3u);
  ExpectIdenticalReports(fresh.EvaluateOne(mirror), session.Evaluate(handle),
                         "post-reclaim");

  // A high-threshold vacuum that rebuilds nothing still reclaims slabs.
  while (session.pool().size() < 4200) {
    const RepairOperation op = workload.Next(session.db(handle));
    session.Apply(handle, op);
    op.ApplyInPlace(mirror);
  }
  EXPECT_GT(session.pool().num_slabs(), 3u);
  session.Vacuum(/*waste_threshold=*/1.0);
  EXPECT_EQ(session.pool().num_slabs(), 3u);
  ExpectIdenticalReports(fresh.EvaluateOne(mirror), session.Evaluate(handle),
                         "post-noop-vacuum-reclaim");
}

// Regression: the incremental index's compiled-eval cache must key on pool
// *identity*, not size alone. The trap: compile the evals at pool size S,
// vacuum (fresh pool, all class ids reassigned, old pool destroyed) so the
// pool shrinks by one dead value, then make the very next Apply's insert
// intern exactly one fresh value — the pool is back at size S before
// CompileEvals runs. A size-keyed cache reuses evals whose constant class
// ids resolve against the dead pool (wrong results) and whose raw pool
// pointer dangles (use-after-free on ordered comparisons, ASan-visible).
TEST(SessionBatch, VacuumWithSameSizePoolRecompilesEvals) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  {  // constant predicate: pins a class id into the compiled evals
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{0, 1}, CompareOp::kEq, Value("pivot"));
    preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Value("pivot"));
    preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{1, 2});
    dcs.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
  }
  {  // ordered predicate: dereferences the eval's cached pool pointer on
     // every candidate pair, but t.A < t'.A after t.A = t'.A never holds,
     // so it adds no subsets that could mask DC1's missing ones
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{0, 0}, CompareOp::kLt, Operand{1, 0});
    dcs.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
  }
  SessionOptions options;
  options.registry.include_mc = false;
  MeasureSession session(schema, dcs, options);
  const MeasureSession fresh(schema, dcs, options);

  // Pool after registration: null, victim, k, c1, pivot, c2 — "victim" is
  // f1's only exclusive value and precedes "pivot", so dropping it at the
  // vacuum shifts pivot's class id.
  Database start(schema);
  start.Insert(Fact(0, {Value("victim"), Value("k"), Value("c1")}));
  start.Insert(Fact(0, {Value("k"), Value("pivot"), Value("c1")}));
  start.Insert(Fact(0, {Value("k"), Value("pivot"), Value("c2")}));
  const DbHandle handle = session.Register(start);
  Database mirror = start;
  const FactId f1 = session.db(handle).ids()[0];
  const size_t compiled_size = session.pool().size();

  auto step = [&](const RepairOperation& op, const std::string& where) {
    session.Apply(handle, op);
    op.ApplyInPlace(mirror);
    ExpectIdenticalReports(fresh.EvaluateOne(mirror),
                           session.Evaluate(handle), where);
  };
  // A no-intern update compiles the eval cache at the current pool size.
  step(RepairOperation::Update(f1, 1, Value("c1")), "post-compile");
  EXPECT_EQ(session.pool().size(), compiled_size);
  // Delete f1: "victim" goes dead; the vacuum rebuilds the pool one entry
  // smaller with every later class id shifted down.
  step(RepairOperation::Deletion(f1), "post-delete");
  EXPECT_TRUE(session.Vacuum(0.0));
  EXPECT_EQ(session.pool().size(), compiled_size - 1);
  // One fresh value brings the *new* pool back to the compiled size before
  // the op's CompileEvals runs — the collision. The inserted fact violates
  // the constant constraint against both pivot rows, so stale evals (pivot
  // class id now pointing at a different value) would miss both subsets.
  step(RepairOperation::Insertion(
           Fact(0, {Value("k"), Value("pivot"), Value("c3")})),
       "post-collision-insert");
  EXPECT_EQ(session.pool().size(), compiled_size);
}

// Subset-slot compaction rides the vacuum: a deletion/insertion churn
// trajectory leaves dead slots behind, the auto-vacuum hook compacts them,
// and a manual Vacuum(0.0) drops every dead slot — with reports identical
// to the fresh engine throughout.
TEST(SessionBatch, VacuumCompactsIncrementalSlots) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  SessionOptions options;
  options.registry.include_mc = false;
  options.auto_vacuum_threshold = 0.25;
  MeasureSession session(schema, dcs, options);
  const MeasureSession fresh(schema, dcs, options);

  const Database start = MakeRandomDatabase(schema, 0, 30, 3, 91);
  const DbHandle handle = session.Register(start);
  Database mirror = start;
  ScriptedWorkload workload(92, WorkloadDomain(3));
  size_t max_slots = 0;
  for (int step = 0; step < 400; ++step) {
    const RepairOperation op = workload.Next(session.db(handle));
    session.Apply(handle, op);
    op.ApplyInPlace(mirror);
    max_slots = std::max(max_slots, session.num_stored_subset_slots(handle));
  }
  ExpectIdenticalReports(fresh.EvaluateOne(mirror), session.Evaluate(handle),
                         "post-churn");
  const size_t live = session.Evaluate(handle).num_minimal_subsets;
  // The auto-vacuum hook runs every 64 ops, so stored slots can overshoot
  // the waste bound by at most one interval's insertions between checks;
  // without compaction a 400-op churn at domain 3 accumulates far more
  // dead slots than that.
  EXPECT_LT(max_slots, 4 * std::max<size_t>(live, 1) + 400)
      << "slot growth unbounded";

  // Manual full compaction: stored slots collapse to the live count and
  // reports are untouched.
  session.Vacuum(0.0);
  EXPECT_EQ(session.num_stored_subset_slots(handle),
            session.Evaluate(handle).num_minimal_subsets);
  ExpectIdenticalReports(fresh.EvaluateOne(mirror), session.Evaluate(handle),
                         "post-manual-vacuum");
}

// With auto-vacuum off (the default, and every dbimd session's), Apply
// itself keeps each handle's dead subset slots from outnumbering the live
// ones, and reports stay identical to the fresh engine.
TEST(SessionBatch, SlotsStayBoundedWithoutAutoVacuum) {
  const auto schema = MakeAbcSchema();
  const auto dcs = AbcFds(*schema);
  SessionOptions options;
  options.registry.include_mc = false;
  ASSERT_EQ(options.auto_vacuum_threshold, 0.0);
  MeasureSession session(schema, dcs, options);
  const MeasureSession fresh(schema, dcs, options);

  const Database start = MakeRandomDatabase(schema, 0, 30, 3, 93);
  const DbHandle handle = session.Register(start);
  Database mirror = start;
  ScriptedWorkload workload(94, WorkloadDomain(3));
  for (int step = 0; step < 400; ++step) {
    const RepairOperation op = workload.Next(session.db(handle));
    session.Apply(handle, op);
    op.ApplyInPlace(mirror);
    const size_t live = session.Violations(handle).num_minimal_subsets();
    ASSERT_LE(session.num_stored_subset_slots(handle), 2 * live + 1)
        << "step " << step;
  }
  EXPECT_EQ(session.num_vacuums(), 0u);
  ExpectIdenticalReports(fresh.EvaluateOne(mirror), session.Evaluate(handle),
                         "post-churn");
}

// Concurrent mutation: independent handles Apply from their own threads —
// interleaved with EvaluateAll batches, PoolWaste scans and the
// auto-vacuum hook — and every final report must be bit-identical to
// sequential application of the same per-handle operation sequences. Run
// under TSan (the suite carries the concurrency label), this is the
// enforcement arm of the session's per-handle locking design: handle
// state under the handle lock, pool appends under the pool's own mutex,
// structural changes behind the exclusive session lock.
TEST(SessionConcurrency, ConcurrentApplyOnIndependentHandles) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  {  // a k-ary constraint keeps the anchored path in the hammering too
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
    preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
    dcs.emplace_back(std::vector<RelationId>(3, 0), std::move(preds));
  }
  SessionOptions options;
  options.registry.include_mc = false;
  options.auto_vacuum_threshold = 0.2;  // vacuums interleave with Applies

  constexpr size_t kHandles = 4;
  constexpr size_t kOpsPerHandle = 80;

  // Pre-generate each handle's operation sequence against its own mirror:
  // sequences are self-contained (ids follow only that handle's history),
  // so they are applicable under any cross-handle interleaving.
  std::vector<Database> mirrors;
  std::vector<std::vector<RepairOperation>> ops(kHandles);
  for (size_t h = 0; h < kHandles; ++h) {
    mirrors.push_back(
        MakeRandomDatabase(schema, 0, 25 + 5 * h, 3, 300 + h));
    ScriptedWorkloadOptions workload_options = WorkloadDomain(5);
    workload_options.churn_start = static_cast<int64_t>(1000 * h);
    ScriptedWorkload workload(400 + h, workload_options);
    for (size_t i = 0; i < kOpsPerHandle; ++i) {
      // Half the ops churn fresh values so the shared pool grows from
      // several threads at once and the vacuum threshold actually trips.
      RepairOperation op = workload.Next(mirrors[h], i % 2 == 0);
      op.ApplyInPlace(mirrors[h]);
      ops[h].push_back(std::move(op));
    }
  }

  MeasureSession session(schema, dcs, options);
  std::vector<DbHandle> handles;
  for (size_t h = 0; h < kHandles; ++h) {
    handles.push_back(
        session.Register(MakeRandomDatabase(schema, 0, 25 + 5 * h, 3,
                                            300 + h)));
  }

  std::vector<std::thread> workers;
  for (size_t h = 0; h < kHandles; ++h) {
    workers.emplace_back([&, h] {
      for (const RepairOperation& op : ops[h]) {
        session.Apply(handles[h], op);
      }
    });
  }
  // A reader thread interleaves whole-session evaluation batches and pool
  // scans with the mutators. Values are point-in-time snapshots (each
  // worker holds its handle's lock), so only shape is asserted here.
  std::thread reader([&] {
    for (int round = 0; round < 6; ++round) {
      const std::vector<BatchReport> reports = session.EvaluateAll(handles);
      EXPECT_EQ(reports.size(), handles.size());
      const double waste = session.PoolWaste();
      EXPECT_GE(waste, 0.0);
      EXPECT_LT(waste, 1.0);
    }
  });
  for (std::thread& t : workers) t.join();
  reader.join();

  // Final state: bit-identical to sequential application, per handle.
  const MeasureSession fresh(schema, dcs, options);
  for (size_t h = 0; h < kHandles; ++h) {
    EXPECT_TRUE(session.db(handles[h]) == mirrors[h]) << "handle " << h;
    ExpectIdenticalReports(fresh.EvaluateOne(mirrors[h]),
                           session.Evaluate(handles[h]),
                           "concurrent handle " + std::to_string(h));
  }
}

}  // namespace
}  // namespace dbim
