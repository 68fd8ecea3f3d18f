// dbimd — the measure-service daemon: MeasureSession over the wire.
//
// Usage:
//   dbimd --spec=constraints.dcs [--port=7411] [--workers=4] [--queue=256]
//         [--threads=N] [--measures=I_d,I_MI,...] [--mc]
//         [--data-dir=DIR] [--no-sync] [--wal-batch=64]
//         [--checkpoint-bytes=N]
//   dbimd --example [--port=7411] ...
//
// Hosts one MeasureSession (the spec's relation + denial constraints, one
// shared ValuePool) and serves the line protocol of src/service/protocol.h
// on 127.0.0.1: clients REGISTER named sessions, APPLY insert/delete/update
// operations (violations are maintained incrementally per operation), and
// EVALUATE measures at any point; concurrent connections are multiplexed
// through bounded per-session work queues with round-robin fairness. See
// README "Service" and tools/dbim_loadgen.cc for a traffic driver.
//
// --data-dir makes the daemon durable: every acknowledged operation is in
// the write-ahead log (group commit across sessions), checkpoints rewrite
// the columnar segments, and a restarted dbimd — including after kill -9 —
// recovers every registered session and serves bit-identical reports.
// Clients re-attach with REGISTER <session> ATTACH.
//
// --example serves the paper's running-example schema and FDs (no spec
// file needed — what the CI smoke test and loadgen examples use).
#include <csignal>
#include <cstdio>
#include <ctime>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "service/server.h"
#include "service/spec.h"
#include "storage/durable_store.h"

namespace {

using namespace dbim;

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbimd --spec=constraints.dcs | --example\n"
      "             [--port=7411] [--workers=4] [--queue=256]\n"
      "             [--threads=N] [--measures=I_d,I_MI,...] [--mc]\n"
      "             [--data-dir=DIR] [--no-sync] [--wal-batch=64]\n"
      "             [--checkpoint-bytes=N]\n"
      "  --port=N     listen port on 127.0.0.1 (0 = ephemeral; the bound\n"
      "               port is printed on stdout)\n"
      "  --workers=N  worker threads draining session queues\n"
      "  --queue=N    per-session admission bound (full => ERR BUSY)\n"
      "  --threads=N  detection worker threads per evaluation\n"
      "  --data-dir=DIR  durable sessions: WAL + columnar segments in DIR;\n"
      "               on restart every session is recovered and served\n"
      "               bit-identically (clients REGISTER ... ATTACH)\n"
      "  --no-sync    write the log without fsync (survives kill -9, not\n"
      "               power loss)\n"
      "  --wal-batch=N    group-commit batch cap (records per fsync)\n"
      "  --checkpoint-bytes=N  auto-checkpoint once the log exceeds N "
      "bytes\n"
      "A malformed flag value is an error (exit 2), never a silent 0.\n");
  return 2;
}

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  const std::string spec_path = FlagValue(argc, argv, "spec").value_or("");
  const bool example = HasFlag(argc, argv, "example");
  if (spec_path.empty() == !example) return Usage();

  ServiceSpec spec;
  if (example) {
    spec = ExampleSpec();
  } else {
    std::string error;
    if (!LoadSpecFile(spec_path, &spec, &error)) {
      std::fprintf(stderr, "spec error: %s\n", error.c_str());
      return 1;
    }
  }

  // Numeric flags are validated up front: a malformed value (e.g.
  // --queue=abc) is a usage error, never a silent zero.
  ServiceOptions options;
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  uint64_t port = 7411;
  uint64_t workers = options.num_workers;
  uint64_t queue = options.queue_capacity;
  storage::DurabilityOptions durability;
  uint64_t wal_batch = durability.group_commit_max_ops;
  uint64_t checkpoint_bytes = durability.checkpoint_wal_bytes;
  std::string flag_error;
  if (!UintFlag(argc, argv, "port", 0, 65535, &port, &flag_error) ||
      !UintFlag(argc, argv, "workers", 1, kMax, &workers, &flag_error) ||
      !UintFlag(argc, argv, "queue", 1, kMax, &queue, &flag_error) ||
      !UintFlag(argc, argv, "wal-batch", 1, kMax, &wal_batch, &flag_error) ||
      !UintFlag(argc, argv, "checkpoint-bytes", 0, kMax, &checkpoint_bytes,
                &flag_error) ||
      !SessionOptionsFromFlags(argc, argv, &options.session, &flag_error)) {
    std::fprintf(stderr, "flag error: %s\n", flag_error.c_str());
    return 2;
  }
  options.port = static_cast<uint16_t>(port);
  options.num_workers = workers;
  options.queue_capacity = queue;

  // Durability: an opened store wired into the server (which recovers every
  // logged session before accepting traffic).
  std::unique_ptr<storage::DurableSessionStore> store;
  const std::string data_dir =
      FlagValue(argc, argv, "data-dir").value_or("");
  if (!data_dir.empty()) {
    durability.sync = !HasFlag(argc, argv, "no-sync");
    durability.group_commit_max_ops = wal_batch;
    durability.checkpoint_wal_bytes = checkpoint_bytes;
    store = std::make_unique<storage::DurableSessionStore>(
        spec.schema, storage::CreateFlatFileBackend(data_dir), durability);
    std::string storage_error;
    if (!store->Open(&storage_error)) {
      std::fprintf(stderr, "storage error: %s\n", storage_error.c_str());
      return 1;
    }
    options.store = store.get();
  }

  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);

  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "start error: %s\n", error.c_str());
    return 1;
  }
  if (store != nullptr) {
    const storage::DurabilityStats stats = store->Stats();
    std::printf(
        "dbimd recovered %llu sessions (%llu log records replayed, epoch "
        "%llu) from %s\n",
        static_cast<unsigned long long>(stats.recovered_sessions),
        static_cast<unsigned long long>(stats.recovered_records),
        static_cast<unsigned long long>(stats.epoch), data_dir.c_str());
  }
  std::printf("dbimd listening on 127.0.0.1:%u (%s, %zu constraints)\n",
              server.port(),
              spec.schema->relation(spec.relation).name().c_str(),
              spec.constraints.size());
  std::fflush(stdout);

  while (!g_stop) {
    struct timespec ts {0, 100 * 1000 * 1000};
    nanosleep(&ts, nullptr);
  }
  server.Stop();
  if (store != nullptr) {
    // Final checkpoint on clean shutdown: the next start recovers from
    // segments alone, no log replay.
    server.session().Vacuum(1.0);
    const storage::DurabilityStats stats = store->Stats();
    std::printf("dbimd checkpointed epoch %llu (%llu checkpoints, %llu "
                "wal syncs this run)\n",
                static_cast<unsigned long long>(stats.epoch),
                static_cast<unsigned long long>(stats.checkpoints),
                static_cast<unsigned long long>(stats.wal_syncs));
  }
  std::printf("dbimd stopped: %zu connections, %zu requests, %zu rejected\n",
              server.num_connections_accepted(), server.num_requests(),
              server.num_rejected());
  return 0;
}
