// WAL throughput (not a paper figure): cost of durability under concurrent
// appliers, and what group commit buys back. Each row drives T threads,
// each applying a recorded scripted trace to its own session handle, under
// four configurations over identical traces:
//
//   none      — plain in-memory MeasureSession (the baseline every other
//               bench and the service's default mode run in),
//   batch=1   — DurableSessionStore with group_commit_max_ops=1: every
//               acknowledged op pays its own fsync,
//   batch=8   — up to 8 records share one fsync,
//   batch=64  — the default batch cap.
//
// Measure reports after the replay must be bit-identical across all four
// configurations — durability is WAL-append-before-mutate and must not
// perturb a single value — and the row fails hard otherwise. The sync
// columns show the amortization directly: with T concurrent appliers,
// batch=N cuts fsyncs roughly N-fold (bounded by how many records are
// pending when a leader drains).
//
// The CI gates (check_bench_regression.py --self) assert "none (s)" never
// exceeds "batch=1 (s)" — durability off must cost nothing, pinning the
// hook's null path — and "batch=64 (s)" stays within 5% of "batch=1 (s)"
// (in practice it is far below under contention; the tolerance absorbs
// single-threaded rows where batching cannot help).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "constraints/parser.h"
#include "measures/session.h"
#include "relational/operations.h"
#include "storage/backend.h"
#include "storage/durable_store.h"

namespace dbim::bench {
namespace {

std::vector<DenialConstraint> TwoFds(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.B = t'.B & t.C != t'.C)"));
  return dcs;
}

// One thread's recorded trace: insert-heavy churn against a simulation
// copy so deletes and updates always target live ids. Deterministic in the
// seed — every configuration replays identical per-thread sequences.
std::vector<RepairOperation> MakeTrace(std::shared_ptr<const Schema> schema,
                                       size_t num_ops, uint64_t seed) {
  Database sim(schema);
  std::vector<FactId> live;
  Rng rng(seed);
  std::vector<RepairOperation> ops;
  ops.reserve(num_ops);
  for (size_t k = 0; k < num_ops; ++k) {
    const int64_t roll = rng.UniformInt(0, 9);
    if (roll < 2 && live.size() > 8) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const FactId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      sim.Delete(id);
      ops.push_back(RepairOperation::Deletion(id));
    } else if (roll < 7 || live.empty()) {
      Fact fact(0, {Value(rng.UniformInt(0, 4)), Value(rng.UniformInt(0, 4)),
                    Value(rng.UniformInt(0, 4))});
      live.push_back(sim.Insert(fact));
      ops.push_back(RepairOperation::Insertion(std::move(fact)));
    } else {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const AttrIndex attr =
          static_cast<AttrIndex>(rng.UniformInt(0, 2));
      Value value(rng.UniformInt(0, 4));
      sim.UpdateValue(live[pick], attr, value);
      ops.push_back(
          RepairOperation::Update(live[pick], attr, std::move(value)));
    }
  }
  return ops;
}

struct ReplayResult {
  double seconds = 0.0;
  uint64_t wal_syncs = 0;
  std::vector<BatchReport> reports;  // one per handle, in thread order
};

// Replays the per-thread traces concurrently. `batch` == 0 means no
// durability at all; otherwise a fresh DurableSessionStore in a fresh
// directory with that group-commit cap. Only the apply phase is timed.
ReplayResult Replay(std::shared_ptr<const Schema> schema,
                    const std::vector<DenialConstraint>& dcs,
                    const std::vector<std::vector<RepairOperation>>& traces,
                    size_t batch) {
  ReplayResult result;
  std::unique_ptr<storage::DurableSessionStore> store;
  std::string dir;
  if (batch > 0) {
    char tmpl[] = "/tmp/dbim_wal_bench_XXXXXX";
    const char* made = mkdtemp(tmpl);
    if (made == nullptr) {
      std::fprintf(stderr, "mkdtemp failed\n");
      std::exit(1);
    }
    dir = made;
    storage::DurabilityOptions durability;
    durability.group_commit_max_ops = batch;
    store = std::make_unique<storage::DurableSessionStore>(
        schema, storage::CreateFlatFileBackend(dir), durability);
    std::string error;
    if (!store->Open(&error)) {
      std::fprintf(stderr, "store open: %s\n", error.c_str());
      std::exit(1);
    }
  }
  {
    SessionOptions options;
    options.registry.include_mc = false;
    if (store != nullptr) options.durability = store.get();
    MeasureSession session(schema, dcs, options);
    std::vector<DbHandle> handles;
    for (size_t t = 0; t < traces.size(); ++t) {
      const DbHandle h = session.Register(Database(schema));
      if (store != nullptr) {
        store->LogRegister("bench" + std::to_string(t), h, nullptr);
      }
      handles.push_back(h);
    }
    std::vector<std::thread> threads;
    Timer timer;
    for (size_t t = 0; t < traces.size(); ++t) {
      threads.emplace_back([&, t]() {
        for (const RepairOperation& op : traces[t]) {
          session.Apply(handles[t], op);
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    result.seconds = timer.Seconds();
    for (const DbHandle h : handles) {
      result.reports.push_back(session.Evaluate(h));
    }
    if (store != nullptr) result.wal_syncs = store->Stats().wal_syncs;
  }
  store.reset();
  if (!dir.empty()) {
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }
  return result;
}

bool ReportsIdentical(const std::vector<BatchReport>& a,
                      const std::vector<BatchReport>& b) {
  if (a.size() != b.size()) return false;
  for (size_t h = 0; h < a.size(); ++h) {
    if (a[h].num_minimal_subsets != b[h].num_minimal_subsets) return false;
    if (a[h].measures.size() != b[h].measures.size()) return false;
    for (size_t m = 0; m < a[h].measures.size(); ++m) {
      if (a[h].measures[m].name != b[h].measures[m].name) return false;
      if (a[h].measures[m].value != b[h].measures[m].value) return false;
    }
  }
  return true;
}

bool RunRow(TablePrinter& table, size_t num_threads, size_t ops_per_thread,
            uint64_t seed) {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"A", "B", "C"});
  const std::vector<DenialConstraint> dcs = TwoFds(*schema);
  std::vector<std::vector<RepairOperation>> traces;
  for (size_t t = 0; t < num_threads; ++t) {
    traces.push_back(MakeTrace(schema, ops_per_thread, seed + t));
  }

  const ReplayResult none = Replay(schema, dcs, traces, 0);
  const ReplayResult batch1 = Replay(schema, dcs, traces, 1);
  const ReplayResult batch8 = Replay(schema, dcs, traces, 8);
  const ReplayResult batch64 = Replay(schema, dcs, traces, 64);

  // Durability must not perturb one measured value.
  for (const ReplayResult* durable : {&batch1, &batch8, &batch64}) {
    if (!ReportsIdentical(none.reports, durable->reports)) {
      std::fprintf(stderr,
                   "%zux%zu: durable replay diverges from in-memory run\n",
                   num_threads, num_threads);
      return false;
    }
  }

  const size_t total_ops = num_threads * ops_per_thread;
  const std::string label =
      std::to_string(num_threads) + "x" + std::to_string(num_threads);
  table.AddRow(
      {label, std::to_string(total_ops), TablePrinter::Num(none.seconds, 3),
       TablePrinter::Num(batch1.seconds, 3),
       TablePrinter::Num(batch8.seconds, 3),
       TablePrinter::Num(batch64.seconds, 3),
       std::to_string(batch1.wal_syncs), std::to_string(batch64.wal_syncs),
       TablePrinter::Num(batch64.seconds > 0
                             ? static_cast<double>(total_ops) / batch64.seconds
                             : 0.0,
                         0)});
  return true;
}

int Run(const BenchArgs& args) {
  PrintHeader(
      "WAL throughput — group commit vs per-op fsync vs no durability",
      "Seconds for TxT concurrent appliers (T threads, one session each)\n"
      "to replay identical scripted traces: in-memory baseline, then the\n"
      "durable store at group-commit caps 1 / 8 / 64. Reports are checked\n"
      "bit-identical across all four; the sync columns show how leaders\n"
      "amortize fsyncs across concurrent sessions.");

  TablePrinter table({"appliers", "ops", "none (s)", "batch=1 (s)",
                      "batch=8 (s)", "batch=64 (s)", "syncs b=1",
                      "syncs b=64", "b=64 ops/s"});
  if (!RunRow(table, 4, args.SampleSize(150, 600), args.seed)) return 1;
  if (!RunRow(table, 8, args.SampleSize(100, 400), args.seed + 100)) return 1;
  Emit(args, "wal", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
