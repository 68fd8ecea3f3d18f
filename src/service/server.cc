#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <map>
#include <utility>

#include "common/string_util.h"
#include "streaming/approx.h"
#include "streaming/stream_session.h"

namespace dbim {

namespace {

#ifdef MSG_NOSIGNAL
constexpr int kSendFlags = MSG_NOSIGNAL;
#else
constexpr int kSendFlags = 0;
#endif

/// The one BatchReport -> WireReport path, shared by EVALUATE and
/// EVALUATE_ALL.
WireReport ToWire(BatchReport report) {
  WireReport wire;
  wire.num_facts = report.num_facts;
  wire.num_minimal_subsets = report.num_minimal_subsets;
  wire.truncated = report.truncated;
  wire.measures.reserve(report.measures.size());
  for (MeasureResult& m : report.measures) {
    wire.measures.emplace_back(std::move(m.name), m.value);
  }
  return wire;
}

/// Wires the durable store (when configured) into the hosted session's
/// options before the session is constructed — called from the member
/// initializer list, after options_ is in place.
SessionOptions SessionOptionsFor(ServiceOptions& options) {
  if (options.store != nullptr) {
    options.session.durability = options.store;
  }
  return options.session;
}

}  // namespace

/// One accepted client socket. The fd closes when the last reference drops
/// (the reader, the connection list and any queued operation each hold
/// one), so a worker can never write into a recycled descriptor.
struct ServiceServer::Connection {
  explicit Connection(int fd) : fd(fd) {}
  ~Connection() {
    if (fd >= 0) ::close(fd);
  }

  /// Writes one response line atomically with respect to other senders on
  /// this connection (line framing survives interleaved workers). Errors
  /// mark the connection closed; replies to a dead peer are discarded.
  void Send(const Response& response) {
    if (closed.load(std::memory_order_acquire)) return;
    std::string line = FormatResponse(response);
    line.push_back('\n');
    std::lock_guard<std::mutex> lock(write_mu);
    size_t off = 0;
    while (off < line.size()) {
      const ssize_t n =
          ::send(fd, line.data() + off, line.size() - off, kSendFlags);
      if (n < 0 && errno == EINTR) continue;  // dbimd traps SIGINT/SIGTERM
      if (n <= 0) {
        closed.store(true, std::memory_order_release);
        return;
      }
      off += static_cast<size_t>(n);
    }
  }

  void ShutdownBoth() {
    closed.store(true, std::memory_order_release);
    ::shutdown(fd, SHUT_RDWR);
  }

  const int fd;
  std::mutex write_mu;
  std::atomic<bool> closed{false};
};

/// One request on its way to its handler. `tenant` is set when a worker
/// takes a queued op off its session's queue (not while queued, so a
/// tenant's queue never owns the tenant); it stays null for inline and
/// exclusive verbs.
struct ServiceServer::PendingOp {
  std::shared_ptr<Connection> conn;
  Request request;
  std::shared_ptr<Tenant> tenant;
};

/// A named session: its MeasureSession handle plus the bounded work queue.
/// Invariants (under sched_mu_): `in_ring` and `in_service` are never both
/// true, and the tenant appears in the ring at most once — together they
/// give serial FIFO execution per session with one queue take per ring
/// visit (the round-robin fairness unit).
struct ServiceServer::Tenant {
  /// A SUBSCRIBE watcher: pushed an ITEM under its tag when the
  /// minimal-subset count crosses `threshold`. Touched only by the worker
  /// currently servicing the tenant (per-session serial execution), so no
  /// lock guards the vector.
  struct Subscriber {
    std::shared_ptr<Connection> conn;
    std::string tag;
    double threshold = 0.0;
    double last = 0.0;  // subset count at the previous check
  };

  std::string name;
  DbHandle handle = 0;
  std::deque<PendingOp> queue;
  bool in_ring = false;
  bool in_service = false;
  bool dead = false;
  /// Engaged when the daemon runs windowed (SessionOptions::window):
  /// wraps `handle`, translating INSERT/DELETE and STREAM_TICK into
  /// window pushes and slides. Same serial-access discipline as
  /// `subscribers` (created before the tenant is addressable).
  std::unique_ptr<StreamSession> stream;
  std::vector<Subscriber> subscribers;
};

ServiceServer::ServiceServer(std::shared_ptr<const Schema> schema,
                             RelationId relation,
                             std::vector<DenialConstraint> constraints,
                             ServiceOptions options)
    : schema_(std::move(schema)),
      relation_(relation),
      options_(std::move(options)),
      session_(schema_, std::move(constraints), SessionOptionsFor(options_)) {}

ServiceServer::~ServiceServer() { Stop(); }

bool ServiceServer::Start(std::string* error) {
  // Crash-safe restart: rebuild every durable session (segments + WAL
  // replay) and seed the tenant registry with the recovered name->handle
  // bindings before any traffic is accepted, so clients can
  // REGISTER ... ATTACH and resume exactly where the dead process stopped.
  if (options_.store != nullptr && !recovery_done_) {
    recovery_done_ = true;
    if (!options_.store->Recover(&session_, &recovered_, error)) {
      return false;
    }
    // Recovered facts re-enter a window at tick 0; a count window
    // immediately trims to its newest `size` of them.
    std::lock_guard<std::mutex> lock(sched_mu_);
    for (const storage::RecoveredSession& rs : recovered_) {
      tenants_.emplace(rs.name, MakeTenant(rs.name, rs.handle));
    }
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    *error = StrFormat("socket: %s", std::strerror(errno));
    return false;
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    *error = StrFormat("bind 127.0.0.1:%u: %s", options_.port,
                       std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  bound_port_ = ntohs(addr.sin_port);
  if (::listen(listen_fd_, 128) < 0) {
    *error = StrFormat("listen: %s", std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  started_ = true;
  const size_t workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void ServiceServer::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_release);
  // Unblock accept: shutdown makes a blocked accept return on Linux; close
  // frees the port either way.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& conn : conns_) conn->ShutdownBoth();
  }
  // The accept thread is joined, so readers_ gains no entries; reader
  // threads only touch finished_readers_ on exit, never the map itself —
  // iterating without conns_mu_ is safe (and joining under it would
  // deadlock against an exiting reader's final bookkeeping).
  for (auto& [id, t] : readers_) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    paused_ = false;
  }
  sched_cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  workers_.clear();
  readers_.clear();
  finished_readers_.clear();
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.clear();
  }
  started_ = false;
}

void ServiceServer::PauseWorkers() {
  std::lock_guard<std::mutex> lock(sched_mu_);
  paused_ = true;
}

void ServiceServer::ResumeWorkers() {
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    paused_ = false;
  }
  sched_cv_.notify_all();
}

void ServiceServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listener broken; the daemon keeps serving live connections
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_shared<Connection>(fd);
    num_connections_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::thread> done;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      conns_.push_back(conn);
      const uint64_t id = next_reader_id_++;
      readers_.emplace(
          id, std::thread([this, id, conn] { ReaderLoop(id, conn); }));
      for (const uint64_t finished : finished_readers_) {
        auto it = readers_.find(finished);
        if (it != readers_.end()) {
          done.push_back(std::move(it->second));
          readers_.erase(it);
        }
      }
      finished_readers_.clear();
    }
    // Join outside the lock: an exiting reader's last act is to record its
    // id under conns_mu_, so joining while holding it could deadlock.
    for (std::thread& t : done) t.join();
  }
}

void ServiceServer::ReaderLoop(uint64_t reader_id,
                               std::shared_ptr<Connection> conn) {
  LineBuffer buffer(options_.max_line_bytes);
  char chunk[4096];
  std::vector<std::string> lines;
  while (!stopping_.load(std::memory_order_acquire)) {
    const ssize_t n = ::recv(conn->fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;  // EOF, reset or shutdown — stop producing
    lines.clear();
    if (!buffer.Feed(chunk, static_cast<size_t>(n), &lines)) {
      for (const std::string& line : lines) HandleLine(conn, line);
      conn->Send(Response::Error("*", "TOO_LARGE",
                                 "request line exceeds the framing cap"));
      break;  // the stream can no longer be framed; cut the connection
    }
    for (const std::string& line : lines) HandleLine(conn, line);
  }
  // Only stop *producing*: operations already admitted to session queues
  // keep their shared_ptr to this connection and still execute; their
  // replies are discarded by Send once `closed` is set.
  conn->ShutdownBoth();
  std::lock_guard<std::mutex> lock(conns_mu_);
  conns_.erase(std::remove(conns_.begin(), conns_.end(), conn), conns_.end());
  finished_readers_.push_back(reader_id);
}

ServiceServer::Handler ServiceServer::BindingFor(Verb verb) {
  static constexpr Handler kHandlers[] = {
      &ServiceServer::HandlePing,         // kPing
      &ServiceServer::HandleSchema,       // kSchema
      &ServiceServer::HandleRegister,     // kRegister
      &ServiceServer::HandleApply,        // kApply
      &ServiceServer::HandleEvaluate,     // kEvaluate
      &ServiceServer::HandleEvaluateAll,  // kEvaluateAll
      &ServiceServer::HandleStats,        // kStats
      &ServiceServer::HandleDump,         // kDump
      &ServiceServer::HandleUnregister,   // kUnregister
      &ServiceServer::HandleVacuum,       // kVacuum
      &ServiceServer::HandleCheckpoint,   // kCheckpoint
      &ServiceServer::HandleStreamTick,   // kStreamTick
      &ServiceServer::HandleSubscribe,    // kSubscribe
  };
  static_assert(std::size(kHandlers) ==
                static_cast<size_t>(Verb::kSubscribe) + 1);
  return kHandlers[static_cast<size_t>(verb)];
}

std::shared_ptr<ServiceServer::Tenant> ServiceServer::MakeTenant(
    std::string name, DbHandle handle) {
  auto tenant = std::make_shared<Tenant>();
  tenant->name = std::move(name);
  tenant->handle = handle;
  if (options_.session.window.enabled()) {
    tenant->stream = std::make_unique<StreamSession>(
        &session_, options_.session.window, handle);
  }
  return tenant;
}

void ServiceServer::HandleLine(const std::shared_ptr<Connection>& conn,
                               const std::string& line) {
  num_requests_.fetch_add(1, std::memory_order_relaxed);
  Request request;
  std::string error;
  if (!ParseRequest(line, &request, &error)) {
    conn->Send(Response::Error(request.tag, "BAD_REQUEST", error));
    return;
  }
  const Handler handler = BindingFor(request.verb);
  if (CommandFor(request.verb).dispatch != Dispatch::kQueued) {
    (this->*handler)(PendingOp{conn, std::move(request), {}});
    return;
  }
  // Queued verbs go through the session's bounded queue.
  {
    std::unique_lock<std::mutex> lock(sched_mu_);
    auto it = tenants_.find(request.session);
    if (it == tenants_.end() || it->second->dead) {
      lock.unlock();
      conn->Send(Response::Error(request.tag, "NO_SESSION",
                                 "unknown session: " + request.session));
      return;
    }
    std::shared_ptr<Tenant> tenant = it->second;
    if (tenant->queue.size() >= options_.queue_capacity) {
      lock.unlock();
      num_rejected_.fetch_add(1, std::memory_order_relaxed);
      conn->Send(Response::Error(request.tag, "BUSY",
                                 "session work queue is full"));
      return;
    }
    tenant->queue.push_back(PendingOp{conn, std::move(request), {}});
    if (!tenant->in_ring && !tenant->in_service) {
      tenant->in_ring = true;
      ring_.push_back(tenant);
      lock.unlock();
      sched_cv_.notify_one();
    }
  }
}

void ServiceServer::HandlePing(PendingOp op) {
  op.conn->Send(Response::Ok(op.request.tag));
}

void ServiceServer::HandleSchema(PendingOp op) {
  // The command table itself travels first — one ITEM per verb, generated
  // from the same CommandSpec rows the dispatcher runs on — then the
  // served relation as the terminal OK (what pre-table clients read).
  for (const CommandSpec& spec : CommandTable()) {
    op.conn->Send(Response::Item(op.request.tag, EncodeCommandRow(spec)));
  }
  const RelationSignature& sig = schema_->relation(relation_);
  op.conn->Send(Response::Ok(op.request.tag,
                             EncodeRelation(sig.name(), sig.attributes())));
}

void ServiceServer::HandleRegister(PendingOp op) {
  const Request& request = op.request;
  std::unique_lock<std::mutex> lock(sched_mu_);
  auto it = tenants_.find(request.session);
  if (it != tenants_.end()) {
    // ATTACH reuses the live (possibly recovered) session; the reply
    // carries its fact count so the client knows what it resumed onto.
    const Response reply =
        request.register_attach
            ? Response::Ok(request.tag, EncodeCounts({session_.NumFacts(
                                            it->second->handle)}))
            : Response::Error(request.tag, "EXISTS",
                              "session exists: " + request.session);
    lock.unlock();
    op.conn->Send(reply);
    return;
  }
  auto tenant =
      MakeTenant(request.session, session_.Register(Database(schema_)));
  // WAL the creation before the name becomes addressable: APPLYs are only
  // admitted once the tenant is in the registry, so in the log every
  // session's apply records strictly follow its register record.
  if (options_.store != nullptr) {
    options_.store->LogRegister(tenant->name, tenant->handle, nullptr);
  }
  tenants_.emplace(tenant->name, tenant);
  lock.unlock();
  op.conn->Send(Response::Ok(
      request.tag, request.register_attach ? EncodeCounts({0}) : ReplyArgs()));
}

void ServiceServer::HandleVacuum(PendingOp op) {
  const bool compacted = session_.Vacuum(op.request.threshold);
  op.conn->Send(Response::Ok(op.request.tag, EncodeCounts({compacted})));
}

void ServiceServer::HandleCheckpoint(PendingOp op) {
  if (options_.store == nullptr) {
    op.conn->Send(Response::Error(op.request.tag, "NO_STORE",
                                  "durability is not configured (--data-dir)"));
    return;
  }
  // Vacuum with an unreachable waste threshold: the pool is left alone but
  // OnCheckpoint fires under the exclusive session lock, rewriting the
  // segments and truncating the log.
  session_.Vacuum(1.0);
  op.conn->Send(Response::Ok(op.request.tag,
                             EncodeCounts({options_.store->Stats().epoch})));
}

void ServiceServer::HandleEvaluateAll(PendingOp op) {
  // Holds the scheduler lock across the batch so no tenant can be
  // unregistered (and its handle freed) underneath the fan-out. New
  // admissions stall for the evaluation only — every reply is
  // formatted under the lock but SENT after it drops, so a client
  // that stops reading blocks its own reader thread, never sched_mu_.
  // Each report's fact count comes from the same locked read as its
  // measures, so a concurrent APPLY cannot split them.
  const std::string& tag = op.request.tag;
  std::vector<Response> responses;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    std::map<std::string, DbHandle> targets;  // reported in name order
    for (const auto& [name, tenant] : tenants_) {
      if (!tenant->dead) targets.emplace(name, tenant->handle);
    }
    std::vector<DbHandle> handles;
    handles.reserve(targets.size());
    for (const auto& [name, handle] : targets) handles.push_back(handle);
    std::vector<BatchReport> reports = session_.EvaluateAll(handles);
    responses.reserve(targets.size() + 1);
    auto report = reports.begin();
    for (const auto& [name, handle] : targets) {
      const WireReport wire = ToWire(std::move(*report++));
      responses.push_back(Response::Item(tag, EncodeSessionReport(name, wire)));
    }
    responses.push_back(Response::Ok(tag, EncodeCounts({targets.size()})));
  }
  for (const Response& response : responses) op.conn->Send(response);
}

void ServiceServer::HandleApply(PendingOp op) {
  const Request& request = op.request;
  const DbHandle handle = op.tenant->handle;
  StreamSession* stream = op.tenant->stream.get();
  const size_t arity = schema_->relation(relation_).arity();
  if (request.apply_kind == ApplyKind::kInsert &&
      request.values.size() != arity) {
    op.conn->Send(Response::Error(
        request.tag, "BAD_REQUEST",
        StrFormat("INSERT arity mismatch: got %zu values, relation has %zu "
                  "attributes",
                  request.values.size(), arity)));
    return;
  }
  if (request.apply_kind == ApplyKind::kUpdate && request.attr >= arity) {
    op.conn->Send(Response::Error(request.tag, "BAD_REQUEST",
                                  "UPDATE attribute out of range"));
    return;
  }
  // A windowed tenant's inserts enter the window at the current tick and
  // may slide out older facts; its deletes leave the window too. Updates
  // mutate in place and keep the fact's arrival tick.
  std::optional<FactId> inserted;
  switch (request.apply_kind) {
    case ApplyKind::kInsert: {
      Fact fact(relation_, request.values);
      inserted = stream != nullptr
                     ? stream->Push(std::move(fact), stream->current_tick())
                     : session_.Apply(handle, RepairOperation::Insertion(
                                                  std::move(fact)));
      break;
    }
    case ApplyKind::kDelete:
      if (stream == nullptr || !stream->Erase(request.fact_id)) {
        session_.Apply(handle, RepairOperation::Deletion(request.fact_id));
      }
      break;
    case ApplyKind::kUpdate:
      session_.Apply(handle, RepairOperation::Update(
                                 request.fact_id, request.attr,
                                 request.values[0]));
      break;
  }
  // Pushes go out before the ack (see protocol.h): once the writer sees
  // its OK, every watcher's ITEM for this op is already on its wire.
  NotifySubscribers(op.tenant);
  op.conn->Send(Response::Ok(request.tag, inserted.has_value()
                                              ? EncodeCounts({*inserted})
                                              : ReplyArgs()));
}

void ServiceServer::HandleEvaluate(PendingOp op) {
  const Request& request = op.request;
  const DbHandle handle = op.tenant->handle;
  if (!request.approx) {
    op.conn->Send(Response::Ok(
        request.tag, EncodeReport(ToWire(session_.Evaluate(handle)))));
    return;
  }
  ApproxOptions approx;
  approx.eps = request.eps;
  approx.confidence = options_.session.approx.confidence;
  approx.seed = options_.session.approx.seed;
  approx.only = options_.session.registry.only;
  ApproxEvaluator evaluator(session_.detector(), std::move(approx));
  const ApproxReport report = session_.WithDatabase(
      handle, [&](const Database& db) { return evaluator.Evaluate(db); });
  WireApproxReport wire;
  wire.num_facts = report.num_facts;
  wire.sample_size = report.sample_size;
  wire.sample_fraction =
      report.num_facts == 0
          ? 1.0
          : static_cast<double>(report.sample_size) / report.num_facts;
  for (const ApproxEstimate& e : report.estimates) {
    wire.estimates.push_back({e.name, e.estimate, e.ci_low, e.ci_high});
  }
  op.conn->Send(Response::Ok(request.tag, EncodeApproxReport(wire)));
}

void ServiceServer::HandleStreamTick(PendingOp op) {
  StreamSession* stream = op.tenant->stream.get();
  if (stream == nullptr) {
    op.conn->Send(Response::Error(
        op.request.tag, "BAD_REQUEST",
        "session is not windowed (start dbimd with --window)"));
    return;
  }
  const size_t expired = stream->AdvanceTo(op.request.tick);
  NotifySubscribers(op.tenant);  // before the ack, as in HandleApply
  op.conn->Send(Response::Ok(op.request.tag,
                             EncodeCounts({expired, stream->num_live()})));
}

void ServiceServer::HandleSubscribe(PendingOp op) {
  const size_t current = session_.NumMinimalSubsets(op.tenant->handle);
  Tenant::Subscriber sub;
  sub.conn = op.conn;
  sub.tag = op.request.tag;
  sub.threshold = op.request.threshold;
  sub.last = static_cast<double>(current);
  op.tenant->subscribers.push_back(std::move(sub));
  op.conn->Send(Response::Ok(op.request.tag, EncodeCounts({current})));
}

void ServiceServer::NotifySubscribers(const std::shared_ptr<Tenant>& tenant) {
  if (tenant->subscribers.empty()) return;
  const double current =
      static_cast<double>(session_.NumMinimalSubsets(tenant->handle));
  auto& subs = tenant->subscribers;
  for (auto it = subs.begin(); it != subs.end();) {
    if (it->conn->closed.load(std::memory_order_acquire)) {
      it = subs.erase(it);
      continue;
    }
    const bool was_above = it->last > it->threshold;
    const bool is_above = current > it->threshold;
    if (was_above != is_above) {
      it->conn->Send(Response::Item(it->tag, EncodePush({is_above, current})));
    }
    it->last = current;
    ++it;
  }
}

void ServiceServer::HandleStats(PendingOp op) {
  const TablePrinter table =
      ConstraintStatsTable(session_.ConstraintStats(op.tenant->handle));
  op.conn->Send(Response::Ok(
      op.request.tag,
      EncodeStats(table.ToJson("constraint_stats"), DurabilityJson())));
}

std::string ServiceServer::DurabilityJson() const {
  if (options_.store == nullptr) return "{\"durable\":0}";
  const storage::DurabilityStats stats = options_.store->Stats();
  return StrFormat(
      "{\"durable\":1,\"epoch\":%llu,\"wal_records\":%llu,"
      "\"wal_bytes\":%llu,\"wal_syncs\":%llu,\"checkpoints\":%llu,"
      "\"recovered_sessions\":%llu,\"recovered_records\":%llu}",
      static_cast<unsigned long long>(stats.epoch),
      static_cast<unsigned long long>(stats.wal_records),
      static_cast<unsigned long long>(stats.wal_bytes),
      static_cast<unsigned long long>(stats.wal_syncs),
      static_cast<unsigned long long>(stats.checkpoints),
      static_cast<unsigned long long>(stats.recovered_sessions),
      static_cast<unsigned long long>(stats.recovered_records));
}

void ServiceServer::HandleDump(PendingOp op) {
  const std::string& tag = op.request.tag;
  const auto rows = session_.CopyFacts(op.tenant->handle);
  for (const auto& [id, values] : rows) {
    op.conn->Send(Response::Item(tag, EncodeDumpRow(id, values)));
  }
  op.conn->Send(Response::Ok(tag, EncodeCounts({rows.size()})));
}

void ServiceServer::HandleUnregister(PendingOp op) {
  Tenant* tenant = op.tenant.get();
  // Retire the tenant from the registry FIRST, under sched_mu_, and only
  // then free the MeasureSession handle. EVALUATE_ALL snapshots live
  // handles and evaluates them under the same lock, so marking the
  // tenant dead before Unregister guarantees it can never hand a freed
  // handle to the session (which would DBIM_CHECK-abort the daemon).
  std::deque<PendingOp> orphaned;
  std::function<void()> hook;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    tenant->dead = true;
    orphaned.swap(tenant->queue);
    auto it = tenants_.find(tenant->name);
    if (it != tenants_.end() && it->second == op.tenant) tenants_.erase(it);
    hook = unregister_hook_;
  }
  // Test hook: holds this worker inside the retired-but-not-yet-freed
  // window so tests can prove EVALUATE_ALL no longer sees the tenant.
  if (hook) hook();
  // The drop is durable before the handle is freed: per-tenant execution
  // is serial, so every apply record for this session already precedes
  // this unregister record in the log.
  if (options_.store != nullptr) {
    options_.store->LogUnregister(tenant->name);
  }
  session_.Unregister(tenant->handle);
  // Operations admitted behind the unregister lose their session.
  for (const PendingOp& orphan : orphaned) {
    orphan.conn->Send(Response::Error(orphan.request.tag, "NO_SESSION",
                                      "session was unregistered"));
  }
  op.conn->Send(Response::Ok(op.request.tag));
}

void ServiceServer::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Tenant> tenant;
    PendingOp op;
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      sched_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_acquire) ||
               (!paused_ && !ring_.empty());
      });
      if (stopping_.load(std::memory_order_acquire)) return;
      tenant = ring_.front();
      ring_.pop_front();
      tenant->in_ring = false;
      if (tenant->dead || tenant->queue.empty()) continue;
      op = std::move(tenant->queue.front());
      tenant->queue.pop_front();
      tenant->in_service = true;
    }
    op.tenant = tenant;
    const Handler handler = BindingFor(op.request.verb);
    (this->*handler)(std::move(op));
    {
      std::unique_lock<std::mutex> lock(sched_mu_);
      tenant->in_service = false;
      // One operation per ring visit: the session re-queues at the TAIL,
      // so every other pending session runs before its next operation —
      // the round-robin fairness guarantee.
      if (!tenant->queue.empty() && !tenant->dead && !tenant->in_ring) {
        tenant->in_ring = true;
        ring_.push_back(tenant);
        lock.unlock();
        sched_cv_.notify_one();
      }
    }
  }
}

}  // namespace dbim
