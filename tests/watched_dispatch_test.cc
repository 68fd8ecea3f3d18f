// Tests for watched-key constraint dispatch: the shared blocking buckets
// (whose non-empty keys ARE the watch set) must match a from-scratch
// rebuild exactly through arbitrary churn, and the maintained MI set must
// equal the brute-force oracle (tests/test_util.h) and fresh detection at
// several thread counts — same subsets, same (F, sigma) counts, same
// measure values — after every operation.
// The concurrent case (watched sessions mutating from several threads) is
// here too, so the suite carries the concurrency label for TSan.
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
#include "violations/incremental.h"

namespace dbim {
namespace {

using testing::ExpectMatchesOracle;
using testing::MakeAbcSchema;
using testing::MakeRandomDatabase;

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

// The 3-ary chain !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C) keeps the
// anchored-pruning path in every sweep.
DenialConstraint ChainDc3() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  return DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds));
}

// The random mutation script is tests/test_util.h's ScriptedWorkload — the
// same delete / fresh insert / duplicate insert / update distribution the
// session fuzz and the service wire tests replay.
using testing::ScriptedWorkload;
using testing::ScriptedWorkloadOptions;

ScriptedWorkloadOptions WorkloadDomain(int64_t domain) {
  ScriptedWorkloadOptions options;
  options.domain = domain;
  return options;
}

// Drives an index through one random trajectory. After every operation:
// the watcher invariant holds, the maintained MI set and its (F, sigma)
// count equal the oracle's, and both match fresh detection at 1/2/4/8
// threads.
void RunOracleSweep(std::shared_ptr<const Schema> schema,
                    const std::vector<DenialConstraint>& dcs,
                    size_t num_facts, uint64_t seed, int steps,
                    const std::string& where) {
  const Database start = MakeRandomDatabase(schema, 0, num_facts, 3, seed);
  IncrementalViolationIndex index(schema, dcs, start);

  ScriptedWorkload workload(seed * 17 + 3, WorkloadDomain(3));
  for (int step = 0; step <= steps; ++step) {
    if (step > 0) index.Apply(workload.Next(index.db()));
    const std::string at = where + " step " + std::to_string(step);
    SCOPED_TRACE(at);
    std::string error;
    ASSERT_TRUE(index.CheckWatcherInvariant(&error)) << error;
    const ViolationSet maintained = index.Snapshot();
    EXPECT_EQ(index.NumMinimalSubsets(), maintained.num_minimal_subsets());
    EXPECT_EQ(index.NumMinimalViolations(),
              maintained.num_minimal_violations());
    ExpectMatchesOracle(dcs, index.db(), maintained);
    const auto sorted = testing::SortedSubsets(maintained);
    for (const size_t threads : {1u, 2u, 4u, 8u}) {
      DetectorOptions dopt;
      dopt.num_threads = threads;
      const ViolationDetector fresh(schema, dcs, dopt);
      const ViolationSet detected = fresh.FindViolations(index.db());
      ASSERT_EQ(sorted, testing::SortedSubsets(detected))
          << "threads=" << threads;
      EXPECT_EQ(index.NumMinimalViolations(),
                detected.num_minimal_violations())
          << "threads=" << threads;
    }
  }
}

class WatchedDispatchSweep : public ::testing::TestWithParam<int> {};

TEST_P(WatchedDispatchSweep, BinarySigmaMatchesOracle) {
  const auto schema = MakeAbcSchema();
  RunOracleSweep(schema, AbcFds(*schema), 22,
                 static_cast<uint64_t>(GetParam()) * 5 + 1, 12,
                 "binary seed=" + std::to_string(GetParam()));
}

TEST_P(WatchedDispatchSweep, MixedBinaryUnaryKArySigmaMatchesOracle) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t.B)"));
  dcs.push_back(ChainDc3());
  RunOracleSweep(schema, dcs, 16,
                 static_cast<uint64_t>(GetParam()) * 9 + 2, 12,
                 "mixed seed=" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, WatchedDispatchSweep, ::testing::Range(0, 6));

// An unblocked binary constraint (no cross-variable equality) must keep
// probing every op — it has no keys to watch.
TEST(WatchedDispatch, UnblockedConstraintAlwaysProbes) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A < t'.A & t.B >= t'.B)"));
  RunOracleSweep(schema, dcs, 14, 87, 10, "unblocked");
}

// Watched dispatch skips constraints whose watched key classes the changed
// fact does not hit: inserting a fact with a unique A touches the A-keyed
// FD's watcher map not at all.
TEST(WatchedDispatch, DispatchStatsCountSkips) {
  const auto schema = MakeAbcSchema();
  const std::vector<DenialConstraint> dcs = AbcFds(*schema);
  Database db(schema);
  // Facts agreeing on B (watched by the B-keyed FD) with all-distinct A.
  for (int64_t i = 0; i < 6; ++i) {
    db.Insert(Fact(0, {Value(100 + i), Value(7), Value(i % 2)}));
  }
  IncrementalViolationIndex watched(schema, dcs, db);
  EXPECT_GT(watched.NumWatchedKeys(), 0u);
  // A fresh fact with a never-seen A and the shared B: the A-keyed FD has
  // no watcher for its key, the B-keyed FD does.
  watched.Apply(RepairOperation::Insertion(
      Fact(0, {Value(999), Value(7), Value(5)})));
  const IncrementalDispatchStats& stats = watched.dispatch_stats();
  EXPECT_EQ(stats.num_ops, 1u);
  EXPECT_GT(stats.constraints_skipped, 0u);
  EXPECT_GT(stats.constraints_probed, 0u);

  EXPECT_EQ(stats.constraints_probed + stats.constraints_skipped, dcs.size());
  ExpectMatchesOracle(dcs, watched.db(), watched.Snapshot());
}

// Per-constraint counters: probing accumulates, fires bump activity, and
// the watcher footprint reflects live buckets (binary) and bucket keys
// (k-ary).
TEST(WatchedDispatch, ConstraintStatsAccumulate) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(ChainDc3());
  const Database start = MakeRandomDatabase(schema, 0, 18, 2, 91);
  IncrementalViolationIndex index(schema, dcs, start);
  ScriptedWorkload workload(92, WorkloadDomain(2));
  for (int step = 0; step < 20; ++step) {
    index.Apply(workload.Next(index.db()));
  }
  uint64_t total_fires = 0;
  for (size_t c = 0; c < dcs.size(); ++c) {
    const IncrementalConstraintStats stats = index.ConstraintStatsFor(c);
    total_fires += stats.num_fires;
    if (stats.num_fires > 0) EXPECT_GT(stats.activity, 0.0) << "dc " << c;
    EXPECT_GT(stats.watcher_count, 0u) << "dc " << c;  // domain 2: dense
  }
  EXPECT_GT(total_fires, 0u);
}

// A single-relation FD keys both sides on the same attribute set, so the
// two watch probes share one bucket group — its watcher footprint is the
// number of distinct key classes, counted once, not once per side.
TEST(WatchedDispatch, FdWatcherCountSharedGroupNotDoubleCounted) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  Database db(schema);
  for (int64_t i = 0; i < 8; ++i) {
    db.Insert(Fact(0, {Value(i % 4), Value(i), Value(0)}));
  }
  IncrementalViolationIndex index(schema, dcs, db);
  EXPECT_EQ(index.ConstraintStatsFor(0).watcher_count, 4u);
}

// Measure-level parity through the session API: a session applying a
// random trajectory reports the measures of a fresh EvaluateOne over an
// equal database, with zero full-detection fallbacks.
TEST(WatchedDispatch, SessionMeasureParity) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(ChainDc3());
  const Database start = MakeRandomDatabase(schema, 0, 18, 3, 131);

  MeasureSession watched(schema, dcs);
  const MeasureSession fresh(schema, dcs);

  const DbHandle wh = watched.Register(start);
  Database mirror = start;
  ScriptedWorkload workload(132, WorkloadDomain(3));
  for (int step = 0; step < 24; ++step) {
    const RepairOperation op = workload.Next(mirror);
    watched.Apply(wh, op);
    op.ApplyInPlace(mirror);
    if (step % 6 != 5) continue;
    const BatchReport expected = fresh.EvaluateOne(mirror);
    const BatchReport actual = watched.Evaluate(wh);
    EXPECT_EQ(expected.num_minimal_subsets, actual.num_minimal_subsets)
        << "step " << step;
    ASSERT_EQ(expected.measures.size(), actual.measures.size());
    for (size_t m = 0; m < expected.measures.size(); ++m) {
      EXPECT_EQ(expected.measures[m].name, actual.measures[m].name);
      EXPECT_EQ(expected.measures[m].value, actual.measures[m].value)
          << "step " << step << " " << expected.measures[m].name;
    }
  }
  EXPECT_EQ(watched.num_full_detections(), 0u);
  // The session surfaces per-constraint stats for the handle.
  const std::vector<SessionConstraintStats> stats = watched.ConstraintStats(wh);
  ASSERT_EQ(stats.size(), dcs.size());
  for (const SessionConstraintStats& s : stats) {
    EXPECT_FALSE(s.constraint.empty());
  }
  EXPECT_GT(watched.DispatchStats(wh).num_ops, 0u);
}

// Concurrent watched mutation: independent handles Apply from their own
// threads; every final report must match sequential application of the
// same per-handle sequences. Run under TSan via the suite's concurrency
// label, this pins the watched fast path into the session's per-handle
// locking design.
TEST(WatchedDispatchConcurrency, ConcurrentWatchedHandlesMatchSequential) {
  const auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> dcs = AbcFds(*schema);
  dcs.push_back(ChainDc3());
  SessionOptions options;
  options.auto_vacuum_threshold = 0.3;

  constexpr size_t kHandles = 3;
  constexpr size_t kOpsPerHandle = 60;
  std::vector<Database> mirrors;
  std::vector<std::vector<RepairOperation>> ops(kHandles);
  for (size_t h = 0; h < kHandles; ++h) {
    mirrors.push_back(MakeRandomDatabase(schema, 0, 18 + 4 * h, 3, 500 + h));
    ScriptedWorkload workload(600 + h, WorkloadDomain(4));
    for (size_t i = 0; i < kOpsPerHandle; ++i) {
      RepairOperation op = workload.Next(mirrors[h]);
      op.ApplyInPlace(mirrors[h]);
      ops[h].push_back(std::move(op));
    }
  }

  MeasureSession session(schema, dcs, options);
  std::vector<DbHandle> handles;
  for (size_t h = 0; h < kHandles; ++h) {
    handles.push_back(
        session.Register(MakeRandomDatabase(schema, 0, 18 + 4 * h, 3,
                                            500 + h)));
  }
  std::vector<std::thread> workers;
  for (size_t h = 0; h < kHandles; ++h) {
    workers.emplace_back([&, h] {
      for (const RepairOperation& op : ops[h]) session.Apply(handles[h], op);
    });
  }
  for (std::thread& t : workers) t.join();

  const MeasureSession fresh(schema, dcs, options);
  for (size_t h = 0; h < kHandles; ++h) {
    EXPECT_TRUE(session.db(handles[h]) == mirrors[h]) << "handle " << h;
    const BatchReport expected = fresh.EvaluateOne(mirrors[h]);
    const BatchReport actual = session.Evaluate(handles[h]);
    EXPECT_EQ(expected.num_minimal_subsets, actual.num_minimal_subsets)
        << "handle " << h;
    ASSERT_EQ(expected.measures.size(), actual.measures.size());
    for (size_t m = 0; m < expected.measures.size(); ++m) {
      EXPECT_EQ(expected.measures[m].value, actual.measures[m].value)
          << "handle " << h << " " << expected.measures[m].name;
    }
  }
  EXPECT_EQ(session.num_full_detections(), 0u);
}

}  // namespace
}  // namespace dbim
