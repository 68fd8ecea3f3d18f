// Socket-level enforcement of the dbimd service contract. The headline
// test drives N concurrent pipelined clients against a loopback server and
// requires every final wire report to be BIT-IDENTICAL — exact double
// equality, not tolerance — to a sequential in-process MeasureSession
// replaying the same operations: per-session FIFO admission plus the
// database's deterministic id assignment make a wire trajectory exactly
// reproducible. The rest pins the scheduling claims one by one: bounded
// queues reject with BUSY, the round-robin ring interleaves tenants, an
// aborted client leaves a consistent session behind, EVALUATE_ALL and
// VACUUM behave, and STATS carries the same numbers the session API
// reports in process. The suite carries the concurrency ctest label and
// must stay TSan-clean.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "constraints/parser.h"
#include "measures/session.h"
#include "relational/operations.h"
#include "service/client.h"
#include "service/server.h"
#include "service/spec.h"
#include "service/workload.h"
#include "test_util.h"

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

SessionOptions FastSessionOptions() {
  SessionOptions options;
  options.registry.include_mc = false;  // keep evaluations cheap
  return options;
}

struct TestServer {
  std::shared_ptr<const Schema> schema;
  std::unique_ptr<ServiceServer> server;

  explicit TestServer(ServiceOptions options = MakeDefaultOptions()) {
    schema = MakeAbcSchema();
    server = std::make_unique<ServiceServer>(schema, 0, AbcFds(*schema),
                                             options);
    std::string error;
    if (!server->Start(&error)) {
      ADD_FAILURE() << "server start: " << error;
    }
  }

  static ServiceOptions MakeDefaultOptions() {
    ServiceOptions options;
    options.session = FastSessionOptions();
    return options;
  }

  uint16_t port() const { return server->port(); }
};

// Converts a ScriptedWorkload operation into its wire request.
Request ToRequest(const std::string& session, const RepairOperation& op) {
  if (op.is_deletion()) return Request::Delete(session, op.deletion().id);
  if (op.is_insertion()) {
    return Request::Insert(session, op.insertion().fact.values());
  }
  return Request::Update(session, op.update().id, op.update().attr,
                         op.update().value);
}

// Bit-identical comparison of a wire report against an in-process one.
// Measure values must round-trip the %.17g encoding exactly.
void ExpectWireMatchesReport(const WireReport& wire, const BatchReport& report,
                             size_t expected_facts, const std::string& where) {
  EXPECT_EQ(wire.num_facts, expected_facts) << where;
  EXPECT_EQ(wire.num_minimal_subsets, report.num_minimal_subsets) << where;
  EXPECT_EQ(wire.truncated, report.truncated) << where;
  ASSERT_EQ(wire.measures.size(), report.measures.size()) << where;
  for (size_t m = 0; m < wire.measures.size(); ++m) {
    EXPECT_EQ(wire.measures[m].first, report.measures[m].name) << where;
    EXPECT_EQ(wire.measures[m].second, report.measures[m].value)
        << where << " measure " << report.measures[m].name
        << " (wire value not bit-identical)";
  }
}

// --------------------------------------------------------------- basics --

TEST(ServiceBasics, SessionLifecycleOverTheWire) {
  TestServer ts;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Ping(&error)) << error;

  std::string relation;
  std::vector<std::string> attributes;
  ASSERT_TRUE(client.Schema(&relation, &attributes, &error)) << error;
  EXPECT_EQ(relation, "R");
  EXPECT_EQ(attributes, (std::vector<std::string>{"A", "B", "C"}));

  ASSERT_TRUE(client.Register("alpha", &error)) << error;
  EXPECT_FALSE(client.Register("alpha", &error));  // duplicate
  EXPECT_NE(error.find("EXISTS"), std::string::npos) << error;

  WireReport report;
  ASSERT_TRUE(client.Evaluate("alpha", &report, &error)) << error;
  EXPECT_EQ(report.num_facts, 0u);
  EXPECT_EQ(report.num_minimal_subsets, 0u);
  EXPECT_FALSE(report.measures.empty());

  EXPECT_FALSE(client.Evaluate("ghost", &report, &error));
  EXPECT_NE(error.find("NO_SESSION"), std::string::npos) << error;

  ASSERT_TRUE(client.Unregister("alpha", &error)) << error;
  EXPECT_FALSE(client.Evaluate("alpha", &report, &error));
  EXPECT_NE(error.find("NO_SESSION"), std::string::npos) << error;

  client.Close();
  ts.server->Stop();
}

// ---------------------------------------------------- wire-mirror parity --

// One client, one session, a scripted trajectory: every assigned fact id
// and every sampled report must match an in-process MeasureSession replay
// bit-for-bit; the final STATS JSON must equal the in-process rendering.
TEST(ServiceParity, WireTrajectoryMatchesInProcessSession) {
  TestServer ts;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("s", &error)) << error;

  MeasureSession mirror_session(ts.schema, AbcFds(*ts.schema),
                                FastSessionOptions());
  const DbHandle mirror = mirror_session.Register(Database(ts.schema));
  const MeasureSession fresh(ts.schema, AbcFds(*ts.schema),
                             FastSessionOptions());
  Database mirror_db(ts.schema);

  ScriptedWorkloadOptions workload_options;
  workload_options.domain = 3;  // dense: plenty of violations
  ScriptedWorkload workload(77, workload_options);
  for (int step = 0; step < 120; ++step) {
    const RepairOperation op = workload.Next(mirror_db);
    const std::optional<FactId> mirror_id = mirror_session.Apply(mirror, op);
    op.ApplyInPlace(mirror_db);
    if (op.is_insertion()) {
      FactId wire_id = 0;
      ASSERT_TRUE(client.ApplyInsert("s", op.insertion().fact.values(),
                                     &wire_id, &error))
          << error;
      ASSERT_TRUE(mirror_id.has_value());
      EXPECT_EQ(wire_id, *mirror_id) << "step " << step;
    } else if (op.is_deletion()) {
      ASSERT_TRUE(client.ApplyDelete("s", op.deletion().id, &error)) << error;
    } else {
      ASSERT_TRUE(client.ApplyUpdate("s", op.update().id, op.update().attr,
                                     op.update().value, &error))
          << error;
    }
    if (step % 10 != 9) continue;
    WireReport wire;
    ASSERT_TRUE(client.Evaluate("s", &wire, &error)) << error;
    const std::string where = "step " + std::to_string(step);
    ExpectWireMatchesReport(wire, mirror_session.Evaluate(mirror),
                            mirror_db.size(), where);
    ExpectWireMatchesReport(wire, fresh.EvaluateOne(mirror_db),
                            mirror_db.size(), where + " vs fresh");
  }

  // STATS carries exactly the numbers the session API reports in-process.
  std::string wire_stats;
  ASSERT_TRUE(client.Stats("s", &wire_stats, &error)) << error;
  const std::string local_stats =
      ConstraintStatsTable(mirror_session.ConstraintStats(mirror))
          .ToJson("constraint_stats");
  EXPECT_EQ(wire_stats, local_stats);

  // DUMP returns the exact rows (ids ascending) of the mirror database.
  std::vector<std::pair<FactId, std::vector<Value>>> rows;
  ASSERT_TRUE(client.Dump("s", &rows, &error)) << error;
  const auto expected_rows = mirror_session.CopyFacts(mirror);
  ASSERT_EQ(rows.size(), expected_rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].first, expected_rows[i].first);
    EXPECT_TRUE(rows[i].second == expected_rows[i].second);
  }

  client.Close();
  ts.server->Stop();
}

// The acceptance bar: N concurrent socket clients, each pipelining a mixed
// Apply/Evaluate stream into its own session, against 2 workers draining
// concurrently. Every client's full trajectory — every insert id, every
// sampled report — must be bit-identical to a sequential in-process replay.
TEST(ServiceConcurrency, ConcurrentPipelinedClientsMatchSequentialMirrors) {
  ServiceOptions options = TestServer::MakeDefaultOptions();
  options.num_workers = 2;
  TestServer ts(options);

  constexpr size_t kClients = 4;
  constexpr size_t kOps = 80;
  constexpr size_t kDepth = 8;

  struct ClientRun {
    std::vector<RepairOperation> ops;
    bool ok = false;
    std::string error;
    WireReport final_report;
  };
  std::vector<ClientRun> runs(kClients);

  // Pre-generate each client's trajectory against a local mirror so the
  // wire phase can pipeline without waiting for ids.
  for (size_t c = 0; c < kClients; ++c) {
    Database db(ts.schema);
    ScriptedWorkloadOptions workload_options;
    workload_options.domain = 3;
    ScriptedWorkload workload(900 + c, workload_options);
    for (size_t i = 0; i < kOps; ++i) {
      RepairOperation op = workload.Next(db);
      op.ApplyInPlace(db);
      runs[c].ops.push_back(std::move(op));
    }
  }

  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      ClientRun& run = runs[c];
      ServiceClient client;
      if (!client.Connect("127.0.0.1", ts.port(), &run.error)) return;
      const std::string session = "tenant" + std::to_string(c);
      if (!client.Register(session, &run.error)) return;
      std::vector<std::string> tags;
      size_t completed = 0;
      auto complete_one = [&]() -> bool {
        AwaitedResponse response;
        if (!client.Await(tags[completed], &response, &run.error)) {
          return false;
        }
        if (!response.ok()) {
          run.error = response.final.error_code;
          return false;
        }
        ++completed;
        return true;
      };
      for (const RepairOperation& op : run.ops) {
        const std::string tag =
            client.Issue(ToRequest(session, op), &run.error);
        if (tag.empty()) return;
        tags.push_back(tag);
        while (tags.size() - completed >= kDepth) {
          if (!complete_one()) return;
        }
      }
      while (completed < tags.size()) {
        if (!complete_one()) return;
      }
      run.ok = client.Evaluate(session, &run.final_report, &run.error);
    });
  }
  for (std::thread& t : threads) t.join();

  // Sequential in-process replay of the same per-session op sequences.
  for (size_t c = 0; c < kClients; ++c) {
    ASSERT_TRUE(runs[c].ok) << "client " << c << ": " << runs[c].error;
    MeasureSession sequential(ts.schema, AbcFds(*ts.schema),
                              FastSessionOptions());
    const DbHandle handle = sequential.Register(Database(ts.schema));
    size_t facts = 0;
    for (const RepairOperation& op : runs[c].ops) {
      sequential.Apply(handle, op);
    }
    facts = sequential.NumFacts(handle);
    ExpectWireMatchesReport(runs[c].final_report, sequential.Evaluate(handle),
                            facts, "client " + std::to_string(c));
  }
  ts.server->Stop();
}

// ----------------------------------------------------- abrupt disconnect --

// A client killed mid-pipeline (RST via SO_LINGER 0) only stops producing:
// whatever prefix of complete lines the server admitted still executes,
// the session stays registered and consistent, and a later client can read
// it back — DUMP rebuilds the exact state, whose fresh evaluation matches
// the wire EVALUATE bit-for-bit.
TEST(ServiceConcurrency, AbruptDisconnectLeavesSessionConsistent) {
  TestServer ts;
  std::string error;
  {
    ServiceClient doomed;
    ASSERT_TRUE(doomed.Connect("127.0.0.1", ts.port(), &error)) << error;
    ASSERT_TRUE(doomed.Register("ghost", &error)) << error;
    Database db(ts.schema);
    ScriptedWorkloadOptions workload_options;
    workload_options.domain = 3;
    ScriptedWorkload workload(31, workload_options);
    for (int i = 0; i < 40; ++i) {
      RepairOperation op = workload.Next(db);
      op.ApplyInPlace(db);
      if (doomed.Issue(ToRequest("ghost", op), &error).empty()) break;
    }
    doomed.Abort();  // never awaits a single reply
  }

  ServiceClient survivor;
  ASSERT_TRUE(survivor.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(survivor.Ping(&error)) << error;  // the server survived

  // The doomed connection's reader may still be draining buffered lines;
  // wait until admissions go quiescent so DUMP and EVALUATE below bracket
  // a stable session (per-session FIFO then orders them after every
  // admitted op).
  size_t last_requests = ts.server->num_requests();
  for (int spin = 0; spin < 200; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const size_t now = ts.server->num_requests();
    if (now == last_requests) break;
    last_requests = now;
  }

  // The applied prefix is unknowable (the RST races the reader), but DUMP
  // exposes whatever state the session reached; rebuilding that state and
  // evaluating it fresh must reproduce the wire report exactly.
  std::vector<std::pair<FactId, std::vector<Value>>> rows;
  ASSERT_TRUE(survivor.Dump("ghost", &rows, &error)) << error;
  Database rebuilt(ts.schema);
  for (const auto& [id, values] : rows) {
    rebuilt.InsertWithId(id, Fact(0, values));
  }
  WireReport wire;
  ASSERT_TRUE(survivor.Evaluate("ghost", &wire, &error)) << error;
  const MeasureSession fresh(ts.schema, AbcFds(*ts.schema),
                             FastSessionOptions());
  ExpectWireMatchesReport(wire, fresh.EvaluateOne(rebuilt), rebuilt.size(),
                          "post-disconnect");
  survivor.Close();
  ts.server->Stop();
}

// ---------------------------------------------------- admission control --

// With workers frozen and a capacity-2 queue, a 50-op pipeline admits
// exactly 2 operations and refuses 48 with BUSY — and the refused ops
// leave no trace: the session ends with exactly the admitted prefix.
TEST(ServiceScheduling, BoundedQueueRejectsWithBusy) {
  ServiceOptions options = TestServer::MakeDefaultOptions();
  options.queue_capacity = 2;
  options.num_workers = 1;
  TestServer ts(options);
  ts.server->PauseWorkers();

  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("s", &error)) << error;  // inline: not queued

  std::vector<std::string> tags;
  for (int i = 0; i < 50; ++i) {
    const std::string tag = client.Issue(
        Request::Insert("s", {Value(i), Value(i), Value(i)}), &error);
    ASSERT_FALSE(tag.empty()) << error;
    tags.push_back(tag);
  }
  // An inline PING's reply proves the reader has processed every queued
  // line above it — admission decisions are final before workers resume.
  // (BUSY rejections also arrive inline ahead of it; Await buffers them.)
  const std::string sync_tag = client.Issue(Request::Ping(), &error);
  ASSERT_FALSE(sync_tag.empty()) << error;
  AwaitedResponse sync;
  ASSERT_TRUE(client.Await(sync_tag, &sync, &error)) << error;
  ASSERT_TRUE(sync.ok());
  ts.server->ResumeWorkers();

  size_t ok = 0, busy = 0;
  for (const std::string& tag : tags) {
    AwaitedResponse response;
    ASSERT_TRUE(client.Await(tag, &response, &error)) << error;
    if (response.ok()) {
      ++ok;
    } else {
      EXPECT_EQ(response.final.error_code, "BUSY");
      ++busy;
    }
  }
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(busy, 48u);
  EXPECT_EQ(ts.server->num_rejected(), 48u);

  // Only the admitted prefix (ops 0 and 1, in FIFO order) was applied.
  std::vector<std::pair<FactId, std::vector<Value>>> rows;
  ASSERT_TRUE(client.Dump("s", &rows, &error)) << error;
  ASSERT_EQ(rows.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(rows[i].first, static_cast<FactId>(i));
    EXPECT_TRUE(rows[i].second ==
                std::vector<Value>({Value(static_cast<int64_t>(i)),
                                    Value(static_cast<int64_t>(i)),
                                    Value(static_cast<int64_t>(i))}));
  }
  client.Close();
  ts.server->Stop();
}

// ------------------------------------------------------------- fairness --

// Round-robin ring: with one worker and a 10-op backlog on a hot session,
// a single op for a cold session executes SECOND, not eleventh — one op
// per ring visit, hot re-queued at the tail. Replies on one connection
// arrive in execution order, so the reply sequence is the schedule.
TEST(ServiceScheduling, RoundRobinRingPreventsStarvation) {
  ServiceOptions options = TestServer::MakeDefaultOptions();
  options.num_workers = 1;
  TestServer ts(options);
  ts.server->PauseWorkers();

  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("hot", &error)) << error;
  ASSERT_TRUE(client.Register("cold", &error)) << error;

  std::vector<std::string> hot_tags;
  for (int i = 0; i < 10; ++i) {
    const std::string tag = client.Issue(
        Request::Insert("hot", {Value(i), Value(i), Value(i)}), &error);
    ASSERT_FALSE(tag.empty()) << error;
    hot_tags.push_back(tag);
  }
  const std::string cold_tag = client.Issue(
      Request::Insert("cold", {Value(0), Value(0), Value(0)}), &error);
  ASSERT_FALSE(cold_tag.empty()) << error;

  // An inline PING's reply proves the reader has admitted all 11 queued
  // ops (it processes the connection's lines in order), closing the race
  // between resume and admission.
  Request ping = Request::Ping();
  ping.tag = "sync";
  ASSERT_TRUE(client.SendRawLine(FormatRequest(ping), &error)) << error;
  std::string line;
  ASSERT_TRUE(client.ReadRawLine(&line, &error)) << error;
  Response response;
  ASSERT_TRUE(ParseResponse(line, &response, &error)) << line;
  ASSERT_EQ(response.tag, "sync");

  ts.server->ResumeWorkers();

  std::vector<std::string> reply_order;
  for (int i = 0; i < 11; ++i) {
    ASSERT_TRUE(client.ReadRawLine(&line, &error)) << error;
    ASSERT_TRUE(ParseResponse(line, &response, &error)) << line;
    EXPECT_EQ(response.kind, ResponseKind::kOk) << line;
    reply_order.push_back(response.tag);
  }
  std::vector<std::string> expected = {hot_tags[0], cold_tag};
  for (size_t i = 1; i < hot_tags.size(); ++i) {
    expected.push_back(hot_tags[i]);
  }
  EXPECT_EQ(reply_order, expected)
      << "cold tenant did not run after exactly one hot op";
  client.Close();
  ts.server->Stop();
}

// Regression: UNREGISTER must retire the tenant from the registry under
// the scheduler lock BEFORE freeing its MeasureSession handle. With the
// old order (free first, mark dead second) a concurrent EVALUATE_ALL could
// snapshot the freed handle in the window between the two steps and abort
// the whole daemon on the session's liveness check. Churn
// register/apply/unregister rounds on one connection while a second
// connection hammers EVALUATE_ALL: the server must survive every
// interleaving and each batch must still cover the stable session.
TEST(ServiceConcurrency, EvaluateAllRacesUnregisterSafely) {
  ServiceOptions options = TestServer::MakeDefaultOptions();
  options.num_workers = 2;
  TestServer ts(options);

  std::atomic<bool> done{false};
  std::string churn_error;
  std::atomic<bool> churn_ok{true};
  std::thread churner([&] {
    ServiceClient client;
    if (!client.Connect("127.0.0.1", ts.port(), &churn_error)) {
      churn_ok = false;
      done = true;
      return;
    }
    for (int round = 0; round < 150 && churn_ok; ++round) {
      const std::string name = "churn" + std::to_string(round % 4);
      FactId id = 0;
      if (!client.Register(name, &churn_error) ||
          !client.ApplyInsert(name, {Value(round), Value(1), Value(2)}, &id,
                              &churn_error) ||
          !client.ApplyInsert(name, {Value(round), Value(9), Value(2)}, &id,
                              &churn_error) ||
          !client.Unregister(name, &churn_error)) {
        churn_ok = false;
      }
    }
    client.Close();
    done = true;
  });

  ServiceClient watcher;
  std::string error;
  ASSERT_TRUE(watcher.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(watcher.Register("stable", &error)) << error;
  FactId id = 0;
  ASSERT_TRUE(watcher.ApplyInsert("stable", {Value(7), Value(7), Value(7)},
                                  &id, &error))
      << error;
  size_t batches = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::vector<std::pair<std::string, WireReport>> reports;
    ASSERT_TRUE(watcher.EvaluateAll(&reports, &error)) << error;
    ++batches;
    bool saw_stable = false;
    for (const auto& [name, report] : reports) {
      saw_stable |= (name == "stable");
    }
    EXPECT_TRUE(saw_stable);
  }
  churner.join();
  EXPECT_TRUE(churn_ok.load()) << churn_error;
  EXPECT_GT(batches, 0u);
  ASSERT_TRUE(watcher.Ping(&error)) << error;  // the daemon survived
  watcher.Close();
  ts.server->Stop();
}

// Deterministic pin of the same ordering: park the worker inside the
// retired-but-not-yet-freed window (via the unregister test hook) and run
// EVALUATE_ALL from a second connection. Because UNREGISTER retires the
// tenant from the registry before freeing its handle, the batch must
// complete without the victim. Under the old order the handle would
// already be freed at the hook point while the tenant was still live in
// the registry, and this exact EVALUATE_ALL would abort the daemon.
TEST(ServiceConcurrency, EvaluateAllCannotSeeTenantBeingUnregistered) {
  TestServer ts;
  std::string error;
  ServiceClient issuer;
  ASSERT_TRUE(issuer.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(issuer.Register("victim", &error)) << error;
  ASSERT_TRUE(issuer.Register("stable", &error)) << error;
  FactId id = 0;
  ASSERT_TRUE(issuer.ApplyInsert("victim", {Value(1), Value(2), Value(3)},
                                 &id, &error))
      << error;

  std::atomic<bool> in_window{false};
  std::atomic<bool> release{false};
  ts.server->SetUnregisterHookForTest([&] {
    in_window.store(true, std::memory_order_release);
    while (!release.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  const std::string unreg_tag =
      issuer.Issue(Request::MakeUnregister("victim"), &error);
  ASSERT_FALSE(unreg_tag.empty()) << error;
  while (!in_window.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  ServiceClient prober;
  ASSERT_TRUE(prober.Connect("127.0.0.1", ts.port(), &error)) << error;
  std::vector<std::pair<std::string, WireReport>> reports;
  ASSERT_TRUE(prober.EvaluateAll(&reports, &error)) << error;
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first, "stable");

  release.store(true, std::memory_order_release);
  AwaitedResponse unreg;
  ASSERT_TRUE(issuer.Await(unreg_tag, &unreg, &error)) << error;
  EXPECT_TRUE(unreg.ok());
  ts.server->SetUnregisterHookForTest(nullptr);
  issuer.Close();
  prober.Close();
  ts.server->Stop();
}

// An EVALUATE_ALL item pairs its <facts> with the measures of the same
// locked read, even while a worker applies inserts to that session. With
// one FD and inserts that share the key but differ on the right-hand side,
// every pair of facts conflicts, so each item must carry exactly
// subsets == facts * (facts - 1) / 2.
TEST(ServiceConcurrency, EvaluateAllItemFactsMatchItsMeasures) {
  auto schema = MakeAbcSchema();
  std::vector<DenialConstraint> fd;
  fd.push_back(*ParseDc(*schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  ServiceOptions options = TestServer::MakeDefaultOptions();
  options.session.registry.only = {"I_MI"};
  options.queue_capacity = 1024;
  ServiceServer server(schema, 0, std::move(fd), options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;
  ServiceClient writer;
  ServiceClient reader;
  ASSERT_TRUE(writer.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(reader.Connect("127.0.0.1", server.port(), &error)) << error;
  ASSERT_TRUE(writer.Register("s", &error)) << error;

  constexpr int64_t kInserts = 400;
  std::atomic<bool> done{false};
  std::atomic<bool> write_ok{true};
  std::string write_error;
  std::thread write_thread([&] {
    std::vector<std::string> tags;
    for (int64_t i = 0; i < kInserts; ++i) {
      tags.push_back(writer.Issue(
          Request::Insert("s", {Value(0), Value(i), Value(0)}), &write_error));
    }
    for (const std::string& tag : tags) {
      AwaitedResponse response;
      if (tag.empty() || !writer.Await(tag, &response, &write_error) ||
          !response.ok()) {
        write_ok = false;
      }
    }
    done = true;
  });
  size_t batches = 0;
  size_t mismatches = 0;
  while (!done.load(std::memory_order_acquire)) {
    std::vector<std::pair<std::string, WireReport>> reports;
    if (!reader.EvaluateAll(&reports, &error)) {
      ADD_FAILURE() << error;
      break;
    }
    ++batches;
    for (const auto& [name, report] : reports) {
      const size_t n = report.num_facts;
      if (report.num_minimal_subsets != n * (n - (n > 0 ? 1 : 0)) / 2) {
        ++mismatches;
      }
    }
  }
  write_thread.join();
  EXPECT_TRUE(write_ok.load()) << write_error;
  EXPECT_GT(batches, 0u);
  EXPECT_EQ(mismatches, 0u) << "of " << batches << " batches";
  writer.Close();
  reader.Close();
  server.Stop();
}

// ----------------------------------------------------- reader-thread reap --

// Connection churn must not accumulate terminated-but-joinable reader
// threads (and their stacks) until shutdown: finished readers are joined
// by the accept loop, so after 40 connect/close cycles the tracked-reader
// count returns to O(live connections) instead of growing by 40.
TEST(ServiceLifecycle, FinishedReaderThreadsAreReaped) {
  TestServer ts;
  std::string error;
  for (int i = 0; i < 40; ++i) {
    ServiceClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
    ASSERT_TRUE(client.Ping(&error)) << error;
    client.Close();
  }

  // Readers exit asynchronously after the close and are joined on the NEXT
  // accept, so poll with fresh probe connections until the count settles.
  // The bound tolerates the probe's own (live) reader plus a couple of
  // churned readers that had not yet recorded their exit at reap time.
  bool reaped = false;
  size_t latest = 0;
  for (int attempt = 0; attempt < 200 && !reaped; ++attempt) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ServiceClient probe;
    ASSERT_TRUE(probe.Connect("127.0.0.1", ts.port(), &error)) << error;
    ASSERT_TRUE(probe.Ping(&error)) << error;
    probe.Close();
    latest = ts.server->num_tracked_readers();
    reaped = latest <= 4;
  }
  EXPECT_TRUE(reaped) << "reader threads not reclaimed: " << latest
                      << " still tracked after churn of 40 connections";
  EXPECT_GT(ts.server->num_connections_accepted(), 40u);
  ts.server->Stop();
}

// ------------------------------------------------- batch verbs and vacuum --

TEST(ServiceBatch, EvaluateAllCoversEverySessionAndVacuumCompacts) {
  TestServer ts;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("a", &error)) << error;
  ASSERT_TRUE(client.Register("b", &error)) << error;

  FactId id = 0;
  ASSERT_TRUE(client.ApplyInsert("a", {Value(1), Value(2), Value(3)}, &id,
                                 &error))
      << error;
  ASSERT_TRUE(client.ApplyInsert("a", {Value(1), Value(9), Value(3)}, &id,
                                 &error))
      << error;  // violates A -> B
  ASSERT_TRUE(client.ApplyInsert("b", {Value("left"), Value("mid"),
                                       Value("right")},
                                 &id, &error))
      << error;

  std::vector<std::pair<std::string, WireReport>> reports;
  ASSERT_TRUE(client.EvaluateAll(&reports, &error)) << error;
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].first, "a");  // sorted by session name
  EXPECT_EQ(reports[1].first, "b");
  // Each item matches its per-session EVALUATE exactly.
  for (const auto& [name, batch_report] : reports) {
    WireReport single;
    ASSERT_TRUE(client.Evaluate(name, &single, &error)) << error;
    EXPECT_EQ(single.num_facts, batch_report.num_facts) << name;
    EXPECT_EQ(single.num_minimal_subsets, batch_report.num_minimal_subsets)
        << name;
    ASSERT_EQ(single.measures.size(), batch_report.measures.size()) << name;
    for (size_t m = 0; m < single.measures.size(); ++m) {
      EXPECT_EQ(single.measures[m], batch_report.measures[m]) << name;
    }
  }
  EXPECT_GT(reports[0].second.num_minimal_subsets, 0u);

  // Unregistering b leaves its strings as pool waste; VACUUM reclaims and
  // a's report is untouched.
  WireReport before;
  ASSERT_TRUE(client.Evaluate("a", &before, &error)) << error;
  ASSERT_TRUE(client.Unregister("b", &error)) << error;
  bool compacted = false;
  ASSERT_TRUE(client.Vacuum(0.0, &compacted, &error)) << error;
  EXPECT_TRUE(compacted);
  ASSERT_TRUE(client.EvaluateAll(&reports, &error)) << error;
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].first, "a");
  WireReport after;
  ASSERT_TRUE(client.Evaluate("a", &after, &error)) << error;
  EXPECT_EQ(after.num_minimal_subsets, before.num_minimal_subsets);
  ASSERT_EQ(after.measures.size(), before.measures.size());
  for (size_t m = 0; m < after.measures.size(); ++m) {
    EXPECT_EQ(after.measures[m], before.measures[m]);
  }
  client.Close();
  ts.server->Stop();
}

// The shared workload generator itself rides the wire correctly: a
// predict_ids run must complete with zero failures at depth 16 (every
// predicted id confirmed by the server) and report the evaluate cadence.
TEST(ServiceBatch, WorkloadGeneratorPredictsServerIds) {
  TestServer ts;
  ServiceClient client;
  std::string error;
  ASSERT_TRUE(client.Connect("127.0.0.1", ts.port(), &error)) << error;
  ASSERT_TRUE(client.Register("w", &error)) << error;
  ServiceWorkloadOptions options;
  options.arity = 3;
  options.domain = 3;
  options.pipeline_depth = 16;
  options.evaluate_every = 8;
  options.predict_ids = true;
  ServiceWorkloadResult result;
  ASSERT_TRUE(RunServiceWorkload(client, "w", 96, 5, options, &result,
                                 &error))
      << error;
  EXPECT_EQ(result.num_ok, 96u);
  EXPECT_EQ(result.num_busy, 0u);
  EXPECT_EQ(result.num_evaluates, 12u);
  EXPECT_EQ(result.latencies_ms.size(), 96u);
  client.Close();
  ts.server->Stop();
}

}  // namespace
}  // namespace dbim
