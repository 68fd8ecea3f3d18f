#ifndef DBIM_SERVICE_SERVER_H_
#define DBIM_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "measures/session.h"
#include "service/protocol.h"
#include "storage/durable_store.h"

namespace dbim {

/// Knobs for one dbimd server instance.
struct ServiceOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back with
  /// port() after Start — the test and bench harnesses do this).
  uint16_t port = 0;

  /// Worker threads executing queued session operations. Evaluate rides
  /// the MeasureSession shared-lock path, so workers on distinct sessions
  /// proceed in parallel; operations on one session always execute
  /// serially, in admission order.
  size_t num_workers = 4;

  /// Admission control: pending operations a session's work queue accepts
  /// before further requests are refused with ERR BUSY. Bounds the memory
  /// one hot tenant can pin and keeps its backlog — and therefore its
  /// worst-case latency — finite.
  size_t queue_capacity = 256;

  /// Framing cap per request line (see protocol.h).
  size_t max_line_bytes = kMaxLineBytes;

  /// Options of the hosted MeasureSession. auto_vacuum is left to the
  /// explicit VACUUM verb by default: the wire APPLY path reads assigned
  /// fact ids under the per-session serial queue, and an async vacuum
  /// would add nothing a client can observe.
  SessionOptions session;

  /// Optional durability: an opened DurableSessionStore (not owned; must
  /// outlive the server). The server wires it into the hosted session's
  /// durability hook, recovers every logged session at Start (seeding the
  /// tenant registry so clients can REGISTER ... ATTACH to them), WALs
  /// REGISTER/UNREGISTER, and serves CHECKPOINT. Null = no durability —
  /// the default, and byte-identical behavior to a pre-durability server.
  storage::DurableSessionStore* store = nullptr;
};

/// A long-lived measure-service daemon: one hosted MeasureSession (one
/// constraint set Sigma over one schema, one shared ValuePool) multiplexed
/// across many named sessions and many concurrent client connections.
///
/// Concurrency model:
///
///  * one reader thread per connection parses lines and answers inline and
///    exclusive verbs (the Dispatch column of protocol.h's CommandTable)
///    directly; queued verbs — the session-addressed ones — are admitted to
///    that session's bounded work queue (full queue => ERR BUSY, request
///    dropped) — so a connection's requests to one session execute in send
///    order, which is what makes wire trajectories reproducible against an
///    in-process mirror;
///  * a fixed worker pool drains the queues through a round-robin ring:
///    a session with pending work appears in the ring at most once, a
///    worker takes exactly ONE operation per visit and re-queues the
///    session at the tail, so a tenant with a thousand queued operations
///    cannot starve one with a single Evaluate — between any two
///    operations of the hot tenant, every other pending tenant runs once;
///  * per-session execution is serial (a session is never in the ring
///    while a worker services it), so FIFO order holds and the worker can
///    read back insertion ids race-free; across sessions, workers run
///    concurrently under MeasureSession's shared lock — an Evaluate never
///    blocks behind an unrelated session's Apply;
///  * an abruptly dropped connection only stops producing: its admitted
///    operations still execute (replies to a closed socket are discarded),
///    so session state stays consistent and later clients resume from it.
class ServiceServer {
 public:
  ServiceServer(std::shared_ptr<const Schema> schema, RelationId relation,
                std::vector<DenialConstraint> constraints,
                ServiceOptions options = {});
  ~ServiceServer();

  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  /// Binds, listens on 127.0.0.1 and spawns the accept loop + workers.
  bool Start(std::string* error);

  /// Stops accepting, cuts every connection, drops queued work and joins
  /// all threads. Idempotent; the destructor calls it.
  void Stop();

  /// The bound port (meaningful after Start; resolves port 0 requests).
  uint16_t port() const { return bound_port_; }

  MeasureSession& session() { return session_; }

  /// Sessions rebuilt from the durable store by Start (empty without one).
  const std::vector<storage::RecoveredSession>& recovered_sessions() const {
    return recovered_;
  }

  /// Test/bench hooks: freeze the worker pool so queued operations
  /// accumulate deterministically, then release it. With workers paused,
  /// admission control and the round-robin ring can be asserted on without
  /// racing the drain.
  void PauseWorkers();
  void ResumeWorkers();

  // Lifetime counters (relaxed; for tests and the daemon's shutdown line).
  size_t num_connections_accepted() const {
    return num_connections_.load(std::memory_order_relaxed);
  }
  size_t num_requests() const {
    return num_requests_.load(std::memory_order_relaxed);
  }
  size_t num_rejected() const {  // ERR BUSY admissions
    return num_rejected_.load(std::memory_order_relaxed);
  }

  /// Reader threads currently tracked (live ones plus finished ones not
  /// yet reaped by the accept loop). Test hook for the reaping guarantee:
  /// under connection churn this returns to O(live connections), not the
  /// total number of connections ever accepted.
  size_t num_tracked_readers() {
    std::lock_guard<std::mutex> lock(conns_mu_);
    return readers_.size();
  }

  /// Test hook: invoked by the worker executing UNREGISTER after the
  /// tenant is retired from the registry (dead + erased, under sched_mu_)
  /// but BEFORE its MeasureSession handle is freed. Lets a test hold the
  /// worker inside that window and assert EVALUATE_ALL can no longer
  /// observe the tenant — the ordering that keeps a freed handle from ever
  /// reaching the session. Set it before issuing the UNREGISTER.
  void SetUnregisterHookForTest(std::function<void()> hook) {
    std::lock_guard<std::mutex> lock(sched_mu_);
    unregister_hook_ = std::move(hook);
  }

 private:
  struct Connection;
  struct Tenant;
  struct PendingOp;
  /// Every verb's handler: inline and exclusive verbs run on the reader
  /// thread with a null PendingOp::tenant, queued verbs on a worker after
  /// admission (Dispatch in protocol.h's CommandTable decides which).
  using Handler = void (ServiceServer::*)(PendingOp);

  void AcceptLoop();
  void ReaderLoop(uint64_t reader_id, std::shared_ptr<Connection> conn);
  void WorkerLoop();
  void HandleLine(const std::shared_ptr<Connection>& conn,
                  const std::string& line);

  /// The verb -> handler table, indexed by Verb like CommandTable().
  static Handler BindingFor(Verb verb);

  /// A named tenant over `handle`, windowed when the daemon is; shared by
  /// REGISTER and Start's recovery.
  std::shared_ptr<Tenant> MakeTenant(std::string name, DbHandle handle);

  // Inline/exclusive handlers (reader thread).
  void HandlePing(PendingOp op);
  void HandleSchema(PendingOp op);
  void HandleRegister(PendingOp op);
  void HandleVacuum(PendingOp op);
  void HandleCheckpoint(PendingOp op);
  void HandleEvaluateAll(PendingOp op);

  // Queued handlers (worker thread, per-session serial).
  void HandleApply(PendingOp op);
  void HandleEvaluate(PendingOp op);
  void HandleStats(PendingOp op);
  void HandleDump(PendingOp op);
  void HandleUnregister(PendingOp op);
  void HandleStreamTick(PendingOp op);
  void HandleSubscribe(PendingOp op);

  /// Pushes an ITEM to every watcher whose threshold the minimal-subset
  /// count just crossed. Runs on the worker servicing the tenant, after an
  /// Apply or window slide — per-tenant execution is serial, so subscriber
  /// state needs no extra lock.
  void NotifySubscribers(const std::shared_ptr<Tenant>& tenant);

  /// The STATS durability token: {"durable":0} without a store, else the
  /// store's counters as JSON.
  std::string DurabilityJson() const;

  std::shared_ptr<const Schema> schema_;
  RelationId relation_;
  ServiceOptions options_;
  MeasureSession session_;

  int listen_fd_ = -1;
  uint16_t bound_port_ = 0;
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool recovery_done_ = false;
  std::vector<storage::RecoveredSession> recovered_;

  // Scheduler state: tenant registry, the fairness ring and the pause
  // flag, all under one mutex (critical sections are pointer shuffles).
  std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  std::unordered_map<std::string, std::shared_ptr<Tenant>> tenants_;
  std::deque<std::shared_ptr<Tenant>> ring_;
  bool paused_ = false;
  std::function<void()> unregister_hook_;  // test-only, see setter

  // Connection registry and reader-thread bookkeeping, under conns_mu_.
  // A reader that exits records its id in finished_readers_; the accept
  // loop joins those threads on the next accept (and Stop joins the rest),
  // so a long-running daemon with connection churn does not accumulate
  // terminated-but-joinable thread stacks.
  std::mutex conns_mu_;
  std::vector<std::shared_ptr<Connection>> conns_;
  std::unordered_map<uint64_t, std::thread> readers_;
  std::vector<uint64_t> finished_readers_;
  uint64_t next_reader_id_ = 0;

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::atomic<size_t> num_connections_{0};
  std::atomic<size_t> num_requests_{0};
  std::atomic<size_t> num_rejected_{0};
};

}  // namespace dbim

#endif  // DBIM_SERVICE_SERVER_H_
