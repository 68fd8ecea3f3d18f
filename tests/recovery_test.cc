// Crash-safety enforcement of the durable-session store. The contract under
// test is exact, not approximate: a recovered session must serve reports
// BIT-IDENTICAL — exact double equality — to an uninterrupted in-process
// mirror of the same operation sequence, because recovery replays the log
// through the very MeasureSession::Apply path live traffic uses and the
// engine's id assignment is deterministic. The suite covers the layers
// bottom-up: segment image round trips byte-for-byte, WAL-only recovery,
// checkpoint + tail replay, torn tails (garbage and mid-frame kill -9
// truncation), unregister/re-register lifecycles, checkpoints racing
// appliers (the TSan target — this file carries the concurrency label),
// and finally a real kill -9 of a forked dbimd-equivalent daemon followed
// by an in-process restart over the same data directory.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <vector>

#include "constraints/parser.h"
#include "measures/session.h"
#include "relational/operations.h"
#include "service/client.h"
#include "service/server.h"
#include "storage/backend.h"
#include "storage/durable_store.h"
#include "storage/format.h"
#include "test_util.h"

#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DBIM_TSAN_BUILD 1
#endif
#endif
#if defined(__SANITIZE_THREAD__)
#define DBIM_TSAN_BUILD 1
#endif

namespace dbim {
namespace {

using testing::MakeAbcSchema;
using testing::ScriptedWorkload;
using testing::ScriptedWorkloadOptions;

std::vector<DenialConstraint> AbcFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

SessionOptions FastOptions() {
  SessionOptions options;
  options.registry.include_mc = false;
  return options;
}

/// A fresh directory under /tmp, removed (with contents) on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    char tmpl[] = "/tmp/dbim_recovery_XXXXXX";
    const char* made = mkdtemp(tmpl);
    EXPECT_NE(made, nullptr);
    path = made != nullptr ? made : "";
  }
  ~TempDir() {
    if (!path.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  }
};

/// Exact-equality comparison of two reports: same subsets, same measure
/// names, bit-identical values.
void ExpectReportsIdentical(const BatchReport& got, const BatchReport& want,
                            const std::string& where) {
  EXPECT_EQ(got.num_minimal_subsets, want.num_minimal_subsets) << where;
  EXPECT_EQ(got.truncated, want.truncated) << where;
  ASSERT_EQ(got.measures.size(), want.measures.size()) << where;
  for (size_t m = 0; m < got.measures.size(); ++m) {
    EXPECT_EQ(got.measures[m].name, want.measures[m].name) << where;
    EXPECT_EQ(got.measures[m].value, want.measures[m].value)
        << where << " measure " << got.measures[m].name
        << " (recovered value not bit-identical)";
  }
}

/// Exact row-level comparison (ids and cells) of two handles.
void ExpectFactsIdentical(const MeasureSession& a, DbHandle ha,
                          const MeasureSession& b, DbHandle hb,
                          const std::string& where) {
  const auto rows_a = a.CopyFacts(ha);
  const auto rows_b = b.CopyFacts(hb);
  ASSERT_EQ(rows_a.size(), rows_b.size()) << where;
  for (size_t i = 0; i < rows_a.size(); ++i) {
    EXPECT_EQ(rows_a[i].first, rows_b[i].first) << where << " row " << i;
    EXPECT_TRUE(rows_a[i].second == rows_b[i].second) << where << " row " << i;
  }
}

/// Generates `n` scripted operations against a locally maintained database
/// (so deletes/updates target live ids), returning the sequence.
std::vector<RepairOperation> ScriptOps(std::shared_ptr<const Schema> schema,
                                       uint64_t seed, size_t n,
                                       bool churn = false) {
  Database db(schema);
  ScriptedWorkloadOptions options;
  options.domain = 3;  // dense: plenty of violations to measure
  options.churn = churn;
  ScriptedWorkload workload(seed, options);
  std::vector<RepairOperation> ops;
  for (size_t i = 0; i < n; ++i) {
    RepairOperation op = workload.Next(db);
    op.ApplyInPlace(db);
    ops.push_back(std::move(op));
  }
  return ops;
}

// ------------------------------------------------- segment round trip --

// The invariant recovery rests on: export -> encode -> decode -> import
// reproduces the physical columns BYTE-FOR-BYTE — row order, exact
// ValueIds, the free-id set and the id high-water mark — so the next
// insert after a round trip assigns the same identifier the uninterrupted
// database would.
TEST(SegmentRoundTrip, ExportEncodeDecodeImportIsByteExact) {
  auto schema = MakeAbcSchema();
  Database db(schema);
  ScriptedWorkloadOptions options;
  options.domain = 4;
  options.churn = true;  // mixed kinds: ints and minted strings
  ScriptedWorkload workload(1234, options);
  for (int i = 0; i < 200; ++i) {
    workload.Next(db).ApplyInPlace(db);
  }
  ASSERT_GT(db.size(), 0u);

  const Database::SegmentImage image = db.ExportSegmentImage();
  const std::string pool_bytes = storage::EncodePoolSegment(db.pool());
  const std::string db_bytes = storage::EncodeDbSegment(image);

  std::string error;
  auto pool = std::make_shared<ValuePool>();
  ASSERT_TRUE(storage::DecodePoolSegment(pool_bytes.data(), pool_bytes.size(),
                                         pool.get(), &error))
      << error;
  Database::SegmentImage decoded;
  ASSERT_TRUE(storage::DecodeDbSegment(db_bytes.data(), db_bytes.size(),
                                       &decoded, &error))
      << error;

  // The decoded image byte-matches the exported one.
  ASSERT_EQ(decoded.relations.size(), image.relations.size());
  for (size_t r = 0; r < image.relations.size(); ++r) {
    EXPECT_EQ(decoded.relations[r].row_ids, image.relations[r].row_ids);
    EXPECT_EQ(decoded.relations[r].columns, image.relations[r].columns);
  }
  EXPECT_EQ(decoded.id_high_water, image.id_high_water);
  EXPECT_EQ(decoded.costs, image.costs);

  // Importing onto the rebuilt pool reproduces the database exactly, and
  // re-exporting reproduces the segment bytes exactly.
  Database imported = Database::FromSegmentImage(schema, pool, decoded);
  EXPECT_TRUE(imported == db);
  EXPECT_EQ(storage::EncodeDbSegment(imported.ExportSegmentImage()), db_bytes);
  EXPECT_EQ(storage::EncodePoolSegment(imported.pool()), pool_bytes);

  // The free-id set round-tripped: the same fresh insert lands on the same
  // identifier in both databases.
  const Fact probe(0, {Value(int64_t{77}), Value("probe"), Value(3.5)});
  const FactId original_id = db.Insert(Fact(probe));
  const FactId imported_id = imported.Insert(Fact(probe));
  EXPECT_EQ(original_id, imported_id);
  EXPECT_TRUE(imported == db);
}

// ----------------------------------------------------- store recovery --

// Run `ops` through a durable session (no checkpoint), close, recover into
// a fresh session, and demand exact equality with an in-memory mirror.
TEST(StoreRecovery, WalOnlyRecoveryMatchesMirror) {
  TempDir dir;
  auto schema = MakeAbcSchema();
  const auto ops_a = ScriptOps(schema, 42, 80);
  const auto ops_b = ScriptOps(schema, 43, 60, /*churn=*/true);
  std::string error;

  {
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path));
    ASSERT_TRUE(store.Open(&error)) << error;
    MeasureSession session(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
    const DbHandle a = session.Register(Database(schema));
    store.LogRegister("alpha", a, nullptr);
    const DbHandle b = session.Register(Database(schema));
    store.LogRegister("beta", b, nullptr);
    for (const RepairOperation& op : ops_a) session.Apply(a, op);
    for (const RepairOperation& op : ops_b) session.Apply(b, op);
    const storage::DurabilityStats stats = store.Stats();
    EXPECT_EQ(stats.wal_records, 2 + ops_a.size() + ops_b.size());
    EXPECT_EQ(stats.epoch, 0u);
  }  // no checkpoint: recovery is pure log replay

  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  MeasureSession recovered(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
  std::vector<storage::RecoveredSession> sessions;
  ASSERT_TRUE(store.Recover(&recovered, &sessions, &error)) << error;
  ASSERT_EQ(sessions.size(), 2u);
  EXPECT_EQ(sessions[0].name, "alpha");
  EXPECT_EQ(sessions[1].name, "beta");
  EXPECT_EQ(store.Stats().recovered_sessions, 2u);
  EXPECT_EQ(store.Stats().recovered_records,
            2 + ops_a.size() + ops_b.size());

  MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
  const DbHandle ma = mirror.Register(Database(schema));
  const DbHandle mb = mirror.Register(Database(schema));
  for (const RepairOperation& op : ops_a) mirror.Apply(ma, op);
  for (const RepairOperation& op : ops_b) mirror.Apply(mb, op);

  ExpectFactsIdentical(recovered, sessions[0].handle, mirror, ma, "alpha");
  ExpectFactsIdentical(recovered, sessions[1].handle, mirror, mb, "beta");
  ExpectReportsIdentical(recovered.Evaluate(sessions[0].handle),
                         mirror.Evaluate(ma), "alpha");
  ExpectReportsIdentical(recovered.Evaluate(sessions[1].handle),
                         mirror.Evaluate(mb), "beta");

  // Recovery also restored the free-id set: the next insert assigns the
  // identifier the uninterrupted session would (and is logged durably).
  const RepairOperation probe = RepairOperation::Insertion(
      Fact(0, {Value(int64_t{5}), Value(int64_t{6}), Value(int64_t{7})}));
  EXPECT_EQ(recovered.Apply(sessions[0].handle, probe),
            mirror.Apply(ma, probe));
}

// Checkpoint mid-trajectory, keep mutating, recover: the base comes from
// segments, the tail from log replay, and the result is still exact.
TEST(StoreRecovery, CheckpointThenMoreOpsRecoversExactly) {
  TempDir dir;
  auto schema = MakeAbcSchema();
  const auto ops = ScriptOps(schema, 7, 120, /*churn=*/true);
  const size_t checkpoint_at = 70;
  std::string error;

  {
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path));
    ASSERT_TRUE(store.Open(&error)) << error;
    MeasureSession session(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
    const DbHandle h = session.Register(Database(schema));
    store.LogRegister("s", h, nullptr);
    for (size_t i = 0; i < ops.size(); ++i) {
      if (i == checkpoint_at) {
        session.Vacuum(1.0);  // durable checkpoint (threshold only gates
                              // pool compaction, not the segment rewrite)
        EXPECT_EQ(store.Stats().epoch, 1u);
        EXPECT_EQ(store.Stats().wal_records, 0u);  // log rotated
      }
      session.Apply(h, ops[i]);
    }
  }

  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  MeasureSession recovered(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
  std::vector<storage::RecoveredSession> sessions;
  ASSERT_TRUE(store.Recover(&recovered, &sessions, &error)) << error;
  ASSERT_EQ(sessions.size(), 1u);
  // Only the post-checkpoint tail was replayed.
  EXPECT_EQ(store.Stats().recovered_records, ops.size() - checkpoint_at);
  EXPECT_EQ(store.Stats().epoch, 1u);

  MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
  const DbHandle m = mirror.Register(Database(schema));
  for (const RepairOperation& op : ops) mirror.Apply(m, op);
  ExpectFactsIdentical(recovered, sessions[0].handle, mirror, m, "s");
  ExpectReportsIdentical(recovered.Evaluate(sessions[0].handle),
                         mirror.Evaluate(m), "s");
}

// Garbage after the last complete frame — the classic torn tail — is
// detected by frame CRC and cut off; every complete record still replays.
TEST(StoreRecovery, TornTailGarbageIsTruncated) {
  TempDir dir;
  auto schema = MakeAbcSchema();
  const auto ops = ScriptOps(schema, 99, 50);
  std::string error;
  {
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path));
    ASSERT_TRUE(store.Open(&error)) << error;
    MeasureSession session(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
    const DbHandle h = session.Register(Database(schema));
    store.LogRegister("s", h, nullptr);
    for (const RepairOperation& op : ops) session.Apply(h, op);
  }

  {
    std::FILE* wal = std::fopen((dir.path + "/wal.0").c_str(), "ab");
    ASSERT_NE(wal, nullptr);
    const char garbage[] = "\x13\x37tornframe\xff\xfe\x00partial";
    std::fwrite(garbage, 1, sizeof(garbage), wal);
    std::fclose(wal);
  }

  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  MeasureSession recovered(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
  std::vector<storage::RecoveredSession> sessions;
  ASSERT_TRUE(store.Recover(&recovered, &sessions, &error)) << error;
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(store.Stats().recovered_records, 1 + ops.size());

  MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
  const DbHandle m = mirror.Register(Database(schema));
  for (const RepairOperation& op : ops) mirror.Apply(m, op);
  ExpectFactsIdentical(recovered, sessions[0].handle, mirror, m, "s");
  ExpectReportsIdentical(recovered.Evaluate(sessions[0].handle),
                         mirror.Evaluate(m), "s");
}

// A kill -9 can land mid-write, leaving a PREFIX of the final frame on
// disk. Recovery must truncate at the frame start and serve the state as
// of the last complete record.
TEST(StoreRecovery, TornTailMidFrameDropsOnlyTheLastRecord) {
  TempDir dir;
  auto schema = MakeAbcSchema();
  const auto ops = ScriptOps(schema, 31, 40);
  std::string error;
  uint64_t bytes_before_last = 0;
  {
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path));
    ASSERT_TRUE(store.Open(&error)) << error;
    MeasureSession session(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
    const DbHandle h = session.Register(Database(schema));
    store.LogRegister("s", h, nullptr);
    for (size_t i = 0; i + 1 < ops.size(); ++i) session.Apply(h, ops[i]);
    bytes_before_last = store.Stats().wal_bytes;
    session.Apply(h, ops.back());
    ASSERT_GT(store.Stats().wal_bytes, bytes_before_last);
  }

  // Tear the final frame: keep 3 bytes of it (inside the 8-byte header).
  ASSERT_EQ(
      truncate((dir.path + "/wal.0").c_str(), bytes_before_last + 3), 0);

  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  MeasureSession recovered(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
  std::vector<storage::RecoveredSession> sessions;
  ASSERT_TRUE(store.Recover(&recovered, &sessions, &error)) << error;
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(store.Stats().recovered_records, 1 + ops.size() - 1);

  MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
  const DbHandle m = mirror.Register(Database(schema));
  for (size_t i = 0; i + 1 < ops.size(); ++i) mirror.Apply(m, ops[i]);
  ExpectFactsIdentical(recovered, sessions[0].handle, mirror, m, "s");
  ExpectReportsIdentical(recovered.Evaluate(sessions[0].handle),
                         mirror.Evaluate(m), "s");

  // The torn tail was truncated, so the log accepts new records cleanly:
  // re-apply the lost op and it lands exactly where the mirror has it.
  mirror.Apply(m, ops.back());
  recovered.Apply(sessions[0].handle, ops.back());
  ExpectFactsIdentical(recovered, sessions[0].handle, mirror, m, "retail");
}

// A session dropped and re-created under the same name recovers as its
// SECOND life only — the unregister record erases the first.
TEST(StoreRecovery, UnregisterThenReRegisterRecoversSecondLife) {
  TempDir dir;
  auto schema = MakeAbcSchema();
  const auto first_life = ScriptOps(schema, 11, 30);
  const auto second_life = ScriptOps(schema, 12, 25);
  std::string error;
  {
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path));
    ASSERT_TRUE(store.Open(&error)) << error;
    MeasureSession session(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
    DbHandle h = session.Register(Database(schema));
    store.LogRegister("phoenix", h, nullptr);
    for (const RepairOperation& op : first_life) session.Apply(h, op);
    store.LogUnregister("phoenix");
    session.Unregister(h);
    h = session.Register(Database(schema));
    store.LogRegister("phoenix", h, nullptr);
    for (const RepairOperation& op : second_life) session.Apply(h, op);
  }

  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  MeasureSession recovered(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
  std::vector<storage::RecoveredSession> sessions;
  ASSERT_TRUE(store.Recover(&recovered, &sessions, &error)) << error;
  ASSERT_EQ(sessions.size(), 1u);
  EXPECT_EQ(sessions[0].name, "phoenix");

  MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
  const DbHandle m = mirror.Register(Database(schema));
  for (const RepairOperation& op : second_life) mirror.Apply(m, op);
  ExpectFactsIdentical(recovered, sessions[0].handle, mirror, m, "phoenix");
  ExpectReportsIdentical(recovered.Evaluate(sessions[0].handle),
                         mirror.Evaluate(m), "phoenix");
}

// ------------------------------------------- checkpoint vs. appliers --

// The TSan target: four threads apply to their own handles while a fifth
// repeatedly checkpoints (Vacuum takes the exclusive session lock, so the
// segment rewrite races nothing — but group commit, WantsCheckpoint polls
// and the stats counters all run concurrently). Afterwards, recovery must
// reproduce each handle exactly from its own sequential mirror: per-handle
// log order equals per-handle mutation order regardless of interleaving.
TEST(RecoveryConcurrency, CheckpointConcurrentWithAppliesStaysExact) {
  TempDir dir;
  auto schema = MakeAbcSchema();
  constexpr size_t kThreads = 4;
  constexpr size_t kOps = 60;
  std::vector<std::vector<RepairOperation>> scripts;
  for (size_t t = 0; t < kThreads; ++t) {
    scripts.push_back(ScriptOps(schema, 500 + t, kOps, /*churn=*/true));
  }
  std::string error;
  {
    storage::DurabilityOptions durability;
    durability.group_commit_max_ops = 8;  // force real batching
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path), durability);
    ASSERT_TRUE(store.Open(&error)) << error;
    MeasureSession session(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
    std::vector<DbHandle> handles;
    for (size_t t = 0; t < kThreads; ++t) {
      const DbHandle h = session.Register(Database(schema));
      store.LogRegister("t" + std::to_string(t), h, nullptr);
      handles.push_back(h);
    }
    std::vector<std::thread> appliers;
    for (size_t t = 0; t < kThreads; ++t) {
      appliers.emplace_back([&, t]() {
        for (const RepairOperation& op : scripts[t]) {
          session.Apply(handles[t], op);
        }
      });
    }
    std::thread checkpointer([&]() {
      for (int round = 0; round < 5; ++round) {
        session.Vacuum(1.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
    for (std::thread& t : appliers) t.join();
    checkpointer.join();
    EXPECT_GE(store.Stats().checkpoints, 5u);
  }

  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  MeasureSession recovered(schema, AbcFds(*schema),
                           FastOptions().WithDurability(&store));
  std::vector<storage::RecoveredSession> sessions;
  ASSERT_TRUE(store.Recover(&recovered, &sessions, &error)) << error;
  ASSERT_EQ(sessions.size(), kThreads);
  for (const storage::RecoveredSession& s : sessions) {
    const size_t t = std::stoul(s.name.substr(1));
    MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
    const DbHandle m = mirror.Register(Database(schema));
    for (const RepairOperation& op : scripts[t]) mirror.Apply(m, op);
    ExpectFactsIdentical(recovered, s.handle, mirror, m, s.name);
    ExpectReportsIdentical(recovered.Evaluate(s.handle), mirror.Evaluate(m),
                           s.name);
  }
}

// --------------------------------------------------- kill -9 the daemon --

// The acceptance bar of the durability work, end to end over real sockets:
// fork a child that serves a durable ServiceServer, drive acknowledged
// traffic into it, SIGKILL it mid-pipeline, restart over the same data
// directory IN THIS PROCESS, re-attach, and demand that the recovered
// session is exactly "every acknowledged operation plus a FIFO prefix of
// the unacknowledged tail" — rows and measure reports bit-identical to an
// in-process mirror extended by that same prefix.
TEST(ServiceRecovery, Kill9ThenRestartServesBitIdenticalReports) {
#ifdef DBIM_TSAN_BUILD
  // Starting threads in a forked child of a (historically) multi-threaded
  // parent is unsupported under TSan; the in-process suite above carries
  // the concurrency coverage.
  GTEST_SKIP() << "fork-based daemon test skipped under TSan";
#endif
  TempDir dir;
  auto schema = MakeAbcSchema();
  int port_pipe[2];
  ASSERT_EQ(pipe(port_pipe), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // --- child: a durable daemon on an ephemeral port, until SIGKILL ---
    close(port_pipe[0]);
    storage::DurableSessionStore store(
        schema, storage::CreateFlatFileBackend(dir.path));
    std::string error;
    if (!store.Open(&error)) _exit(10);
    ServiceOptions options;
    options.session = FastOptions();
    options.store = &store;
    ServiceServer server(schema, 0, AbcFds(*schema), options);
    if (!server.Start(&error)) _exit(11);
    const std::string port_line = std::to_string(server.port()) + "\n";
    if (write(port_pipe[1], port_line.data(), port_line.size()) < 0) {
      _exit(12);
    }
    for (;;) pause();  // killed by the parent
  }
  close(port_pipe[1]);
  uint16_t port = 0;
  {
    char buf[16] = {0};
    ssize_t n = read(port_pipe[0], buf, sizeof(buf) - 1);
    ASSERT_GT(n, 0);
    port = static_cast<uint16_t>(std::strtoul(buf, nullptr, 10));
  }
  close(port_pipe[0]);
  ASSERT_GT(port, 0);

  // Phase 1: acknowledged scripted traffic, mirrored in-process. Every op
  // below returned OK, so its WAL record is durable — recovery MUST have
  // all of them.
  MeasureSession mirror(schema, AbcFds(*schema), FastOptions());
  const DbHandle m = mirror.Register(Database(schema));
  Database mirror_db(schema);
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", port, &error)) << error;
  ASSERT_TRUE(client.Register("s", &error)) << error;
  ScriptedWorkloadOptions workload_options;
  workload_options.domain = 3;
  ScriptedWorkload workload(2024, workload_options);
  for (int step = 0; step < 60; ++step) {
    const RepairOperation op = workload.Next(mirror_db);
    const std::optional<FactId> mirror_id = mirror.Apply(m, op);
    op.ApplyInPlace(mirror_db);
    if (op.is_insertion()) {
      FactId wire_id = 0;
      ASSERT_TRUE(client.ApplyInsert("s", op.insertion().fact.values(),
                                     &wire_id, &error))
          << error;
      ASSERT_TRUE(mirror_id.has_value());
      ASSERT_EQ(wire_id, *mirror_id) << "step " << step;
    } else if (op.is_deletion()) {
      ASSERT_TRUE(client.ApplyDelete("s", op.deletion().id, &error)) << error;
    } else {
      ASSERT_TRUE(client.ApplyUpdate("s", op.update().id, op.update().attr,
                                     op.update().value, &error))
          << error;
    }
  }
  const size_t acked_facts = mirror.NumFacts(m);

  // Phase 2: pipeline unacknowledged inserts and SIGKILL mid-flight. The
  // per-session FIFO makes whatever survives a strict prefix.
  constexpr size_t kExtras = 32;
  std::vector<RepairOperation> extras;
  for (size_t i = 0; i < kExtras; ++i) {
    extras.push_back(RepairOperation::Insertion(
        Fact(0, {Value(static_cast<int64_t>(1000 + i)),
                 Value(static_cast<int64_t>(i)),
                 Value(static_cast<int64_t>(i))})));
    Request request = Request::Insert("s", extras.back().insertion().fact.values());
    if (client.Issue(request, &error).empty()) break;  // RST race: fine
  }
  ASSERT_EQ(kill(child, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  ASSERT_TRUE(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL);
  client.Abort();

  // Restart over the same directory, in this process.
  storage::DurableSessionStore store(
      schema, storage::CreateFlatFileBackend(dir.path));
  ASSERT_TRUE(store.Open(&error)) << error;
  ServiceOptions options;
  options.session = FastOptions();
  options.store = &store;
  ServiceServer server(schema, 0, AbcFds(*schema), options);
  ASSERT_TRUE(server.Start(&error)) << error;
  ASSERT_EQ(server.recovered_sessions().size(), 1u);
  EXPECT_EQ(server.recovered_sessions()[0].name, "s");

  ServiceClient survivor;
  ASSERT_TRUE(survivor.Connect("127.0.0.1", server.port(), &error)) << error;
  size_t resumed = 0;
  ASSERT_TRUE(survivor.RegisterAttach("s", &resumed, &error)) << error;
  ASSERT_GE(resumed, acked_facts);  // every acknowledged op survived
  const size_t prefix = resumed - acked_facts;  // extras are inserts only
  ASSERT_LE(prefix, kExtras);

  // Extend the mirror by the recovered prefix; rows and report must now be
  // bit-identical over the wire.
  for (size_t i = 0; i < prefix; ++i) mirror.Apply(m, extras[i]);
  std::vector<std::pair<FactId, std::vector<Value>>> rows;
  ASSERT_TRUE(survivor.Dump("s", &rows, &error)) << error;
  const auto mirror_rows = mirror.CopyFacts(m);
  ASSERT_EQ(rows.size(), mirror_rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, mirror_rows[i].first) << "row " << i;
    EXPECT_TRUE(rows[i].second == mirror_rows[i].second) << "row " << i;
  }
  WireReport wire;
  ASSERT_TRUE(survivor.Evaluate("s", &wire, &error)) << error;
  const BatchReport want = mirror.Evaluate(m);
  EXPECT_EQ(wire.num_facts, mirror.NumFacts(m));
  EXPECT_EQ(wire.num_minimal_subsets, want.num_minimal_subsets);
  ASSERT_EQ(wire.measures.size(), want.measures.size());
  for (size_t i = 0; i < wire.measures.size(); ++i) {
    EXPECT_EQ(wire.measures[i].first, want.measures[i].name);
    EXPECT_EQ(wire.measures[i].second, want.measures[i].value)
        << "measure " << want.measures[i].name << " not bit-identical";
  }

  // STATS now reports durability; CHECKPOINT rotates the epoch.
  std::string stats_json, durability_json;
  ASSERT_TRUE(survivor.Stats("s", &stats_json, &error, &durability_json))
      << error;
  EXPECT_NE(durability_json.find("\"durable\":1"), std::string::npos)
      << durability_json;
  uint64_t epoch = 0;
  ASSERT_TRUE(survivor.Checkpoint(&epoch, &error)) << error;
  EXPECT_GE(epoch, 1u);
  survivor.Close();
  server.Stop();
}

}  // namespace
}  // namespace dbim
