#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
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

std::string FormatDouble(double v) { return StrFormat("%.17g", v); }

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

/// An admitted session-addressed request awaiting a worker.
struct ServiceServer::PendingOp {
  std::shared_ptr<Connection> conn;
  Request request;
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
    std::lock_guard<std::mutex> lock(sched_mu_);
    for (const storage::RecoveredSession& rs : recovered_) {
      auto tenant = std::make_shared<Tenant>();
      tenant->name = rs.name;
      tenant->handle = rs.handle;
      if (options_.session.window.enabled()) {
        // Recovered facts re-enter the window at tick 0; a count window
        // immediately trims to its newest `size` of them.
        tenant->stream = std::make_unique<StreamSession>(
            &session_, options_.session.window, tenant->handle);
      }
      tenants_.emplace(tenant->name, tenant);
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

/// The per-verb handler table, indexed by Verb exactly like CommandTable():
/// every row binds either an inline handler (reader thread) or a queued one
/// (worker thread) — which one is non-null must agree with the command's
/// Dispatch class, checked on first use.
struct ServiceServer::VerbBinding {
  void (ServiceServer::*inline_fn)(const std::shared_ptr<Connection>&,
                                   const Request&) = nullptr;
  void (ServiceServer::*queued_fn)(const std::shared_ptr<Tenant>&,
                                   PendingOp) = nullptr;
};

const ServiceServer::VerbBinding& ServiceServer::BindingFor(Verb verb) {
  static const VerbBinding kBindings[] = {
      {&ServiceServer::HandlePing, nullptr},         // kPing
      {&ServiceServer::HandleSchema, nullptr},       // kSchema
      {&ServiceServer::HandleRegister, nullptr},     // kRegister
      {nullptr, &ServiceServer::HandleApply},        // kApply
      {nullptr, &ServiceServer::HandleEvaluate},     // kEvaluate
      {&ServiceServer::HandleEvaluateAll, nullptr},  // kEvaluateAll
      {nullptr, &ServiceServer::HandleStats},        // kStats
      {nullptr, &ServiceServer::HandleDump},         // kDump
      {nullptr, &ServiceServer::HandleUnregister},   // kUnregister
      {&ServiceServer::HandleVacuum, nullptr},       // kVacuum
      {&ServiceServer::HandleCheckpoint, nullptr},   // kCheckpoint
      {nullptr, &ServiceServer::HandleStreamTick},   // kStreamTick
      {nullptr, &ServiceServer::HandleSubscribe},    // kSubscribe
  };
  static const bool checked = [] {
    const std::vector<CommandSpec>& table = CommandTable();
    if (table.size() != sizeof(kBindings) / sizeof(kBindings[0])) abort();
    for (size_t i = 0; i < table.size(); ++i) {
      const bool queued = table[i].dispatch == Dispatch::kQueued;
      if (queued != (kBindings[i].queued_fn != nullptr) ||
          queued == (kBindings[i].inline_fn != nullptr)) {
        abort();
      }
    }
    return true;
  }();
  (void)checked;
  return kBindings[static_cast<size_t>(verb)];
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
  const VerbBinding& binding = BindingFor(request.verb);
  if (binding.inline_fn != nullptr) {
    (this->*binding.inline_fn)(conn, request);
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
    tenant->queue.push_back(PendingOp{conn, std::move(request)});
    if (!tenant->in_ring && !tenant->in_service) {
      tenant->in_ring = true;
      ring_.push_back(tenant);
      lock.unlock();
      sched_cv_.notify_one();
    }
  }
}

void ServiceServer::HandlePing(const std::shared_ptr<Connection>& conn,
                               const Request& request) {
  conn->Send(Response::Ok(request.tag));
}

void ServiceServer::HandleSchema(const std::shared_ptr<Connection>& conn,
                                 const Request& request) {
  // The command table itself travels first — one ITEM per verb, generated
  // from the same CommandSpec rows the dispatcher runs on — then the
  // served relation as the terminal OK (what pre-table clients read).
  for (const CommandSpec& spec : CommandTable()) {
    conn->Send(Response::Item(
        request.tag,
        {spec.name, std::to_string(spec.min_args),
         spec.max_args == kUnboundedArgs ? "*" : std::to_string(spec.max_args),
         DispatchName(spec.dispatch), EncodeToken(spec.usage),
         EncodeToken(spec.summary)}));
  }
  const RelationSignature& sig = schema_->relation(relation_);
  std::vector<std::string> args;
  args.push_back(EncodeToken(sig.name()));
  for (const std::string& attr : sig.attributes()) {
    args.push_back(EncodeToken(attr));
  }
  conn->Send(Response::Ok(request.tag, std::move(args)));
}

void ServiceServer::HandleRegister(const std::shared_ptr<Connection>& conn,
                                   const Request& request) {
  std::unique_lock<std::mutex> lock(sched_mu_);
  auto it = tenants_.find(request.session);
  if (it != tenants_.end()) {
    if (request.register_attach) {
      // ATTACH reuses the live (possibly recovered) session; the reply
      // carries its fact count so the client knows what it resumed onto.
      const size_t num_facts = session_.NumFacts(it->second->handle);
      lock.unlock();
      conn->Send(Response::Ok(request.tag, {std::to_string(num_facts)}));
    } else {
      lock.unlock();
      conn->Send(Response::Error(request.tag, "EXISTS",
                                 "session exists: " + request.session));
    }
    return;
  }
  auto tenant = std::make_shared<Tenant>();
  tenant->name = request.session;
  tenant->handle = session_.Register(Database(schema_));
  if (options_.session.window.enabled()) {
    tenant->stream = std::make_unique<StreamSession>(
        &session_, options_.session.window, tenant->handle);
  }
  // WAL the creation before the name becomes addressable: APPLYs are only
  // admitted once the tenant is in the registry, so in the log every
  // session's apply records strictly follow its register record.
  if (options_.store != nullptr) {
    options_.store->LogRegister(tenant->name, tenant->handle, nullptr);
  }
  tenants_.emplace(tenant->name, tenant);
  lock.unlock();
  if (request.register_attach) {
    conn->Send(Response::Ok(request.tag, {"0"}));
  } else {
    conn->Send(Response::Ok(request.tag));
  }
}

void ServiceServer::HandleVacuum(const std::shared_ptr<Connection>& conn,
                                 const Request& request) {
  const bool compacted = session_.Vacuum(request.threshold);
  conn->Send(Response::Ok(request.tag, {compacted ? "1" : "0"}));
}

void ServiceServer::HandleCheckpoint(const std::shared_ptr<Connection>& conn,
                                     const Request& request) {
  if (options_.store == nullptr) {
    conn->Send(Response::Error(request.tag, "NO_STORE",
                               "durability is not configured (--data-dir)"));
    return;
  }
  // Vacuum with an unreachable waste threshold: the pool is left alone but
  // OnCheckpoint fires under the exclusive session lock, rewriting the
  // segments and truncating the log.
  session_.Vacuum(1.0);
  conn->Send(Response::Ok(
      request.tag, {std::to_string(options_.store->Stats().epoch)}));
}

void ServiceServer::HandleEvaluateAll(const std::shared_ptr<Connection>& conn,
                                      const Request& request) {
  // Holds the scheduler lock across the batch so no tenant can be
  // unregistered (and its handle freed) underneath the fan-out. New
  // admissions stall for the evaluation only — every reply is
  // formatted under the lock but SENT after it drops, so a client
  // that stops reading blocks its own reader thread, never sched_mu_.
  std::vector<Response> responses;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    std::vector<std::pair<std::string, DbHandle>> targets;
    targets.reserve(tenants_.size());
    for (const auto& [name, tenant] : tenants_) {
      if (!tenant->dead) targets.emplace_back(name, tenant->handle);
    }
    std::sort(targets.begin(), targets.end());
    std::vector<DbHandle> handles;
    handles.reserve(targets.size());
    for (const auto& [name, handle] : targets) handles.push_back(handle);
    const std::vector<BatchReport> reports = session_.EvaluateAll(handles);
    responses.reserve(targets.size() + 1);
    for (size_t i = 0; i < targets.size(); ++i) {
      std::vector<std::string> args;
      args.push_back(EncodeToken(targets[i].first));
      args.push_back(std::to_string(session_.NumFacts(handles[i])));
      args.push_back(std::to_string(reports[i].num_minimal_subsets));
      args.push_back(reports[i].truncated ? "1" : "0");
      for (const MeasureResult& m : reports[i].measures) {
        args.push_back(EncodeToken(m.name));
        args.push_back(FormatDouble(m.value));
      }
      responses.push_back(Response::Item(request.tag, std::move(args)));
    }
    responses.push_back(
        Response::Ok(request.tag, {std::to_string(targets.size())}));
  }
  for (const Response& response : responses) conn->Send(response);
}

Response ServiceServer::DoEvaluate(const std::string& tag,
                                   const std::string& name, DbHandle handle) {
  (void)name;
  const size_t num_facts = session_.NumFacts(handle);
  const BatchReport report = session_.Evaluate(handle);
  std::vector<std::string> args;
  args.push_back(std::to_string(num_facts));
  args.push_back(std::to_string(report.num_minimal_subsets));
  args.push_back(report.truncated ? "1" : "0");
  for (const MeasureResult& m : report.measures) {
    args.push_back(EncodeToken(m.name));
    args.push_back(FormatDouble(m.value));
  }
  return Response::Ok(tag, std::move(args));
}

void ServiceServer::ExecuteQueued(const std::shared_ptr<Tenant>& tenant,
                                  PendingOp op) {
  const VerbBinding& binding = BindingFor(op.request.verb);
  (this->*binding.queued_fn)(tenant, std::move(op));
}

void ServiceServer::HandleApply(const std::shared_ptr<Tenant>& tenant,
                                PendingOp op) {
  const Request& request = op.request;
  const std::string& tag = request.tag;
  RepairOperation repair = RepairOperation::Deletion(0);
  switch (request.apply_kind) {
    case ApplyKind::kInsert: {
      const size_t arity = schema_->relation(relation_).arity();
      if (request.values.size() != arity) {
        op.conn->Send(Response::Error(
            tag, "BAD_REQUEST",
            StrFormat("INSERT arity mismatch: got %zu values, relation "
                      "has %zu attributes",
                      request.values.size(), arity)));
        return;
      }
      repair = RepairOperation::Insertion(Fact(relation_, request.values));
      break;
    }
    case ApplyKind::kDelete:
      repair = RepairOperation::Deletion(request.fact_id);
      break;
    case ApplyKind::kUpdate: {
      if (request.attr >= schema_->relation(relation_).arity()) {
        op.conn->Send(Response::Error(tag, "BAD_REQUEST",
                                      "UPDATE attribute out of range"));
        return;
      }
      repair = RepairOperation::Update(request.fact_id, request.attr,
                                       request.values[0]);
      break;
    }
  }
  std::optional<FactId> inserted;
  if (tenant->stream != nullptr) {
    // Windowed tenant: inserts enter the window at the current tick and
    // may slide out older facts; deletes leave the window too. Updates
    // mutate in place and keep the fact's arrival tick.
    switch (request.apply_kind) {
      case ApplyKind::kInsert:
        inserted = tenant->stream->Push(Fact(relation_, request.values),
                                        tenant->stream->current_tick());
        break;
      case ApplyKind::kDelete:
        if (!tenant->stream->Erase(request.fact_id)) {
          session_.Apply(tenant->handle, repair);
        }
        break;
      case ApplyKind::kUpdate:
        session_.Apply(tenant->handle, repair);
        break;
    }
  } else {
    inserted = session_.Apply(tenant->handle, repair);
  }
  // Pushes go out before the ack (see protocol.h): once the writer sees
  // its OK, every watcher's ITEM for this op is already on its wire.
  NotifySubscribers(tenant);
  if (inserted.has_value()) {
    op.conn->Send(Response::Ok(tag, {std::to_string(*inserted)}));
  } else {
    op.conn->Send(Response::Ok(tag));
  }
}

void ServiceServer::HandleEvaluate(const std::shared_ptr<Tenant>& tenant,
                                   PendingOp op) {
  if (op.request.approx) {
    op.conn->Send(
        DoEvaluateApprox(op.request.tag, tenant->handle, op.request.eps));
    return;
  }
  op.conn->Send(DoEvaluate(op.request.tag, tenant->name, tenant->handle));
}

Response ServiceServer::DoEvaluateApprox(const std::string& tag,
                                         DbHandle handle, double eps) {
  ApproxOptions approx;
  approx.eps = eps;
  approx.confidence = options_.session.approx.confidence;
  approx.seed = options_.session.approx.seed;
  approx.only = options_.session.only;
  ApproxEvaluator evaluator(session_.detector(), std::move(approx));
  const ApproxReport report = session_.WithDatabase(
      handle, [&](const Database& db) { return evaluator.Evaluate(db); });
  std::vector<std::string> args;
  args.push_back(std::to_string(report.num_facts));
  args.push_back(std::to_string(report.sample_size));
  args.push_back(FormatDouble(
      report.num_facts == 0
          ? 1.0
          : static_cast<double>(report.sample_size) / report.num_facts));
  for (const ApproxEstimate& e : report.estimates) {
    args.push_back(EncodeToken(e.name));
    args.push_back(FormatDouble(e.estimate));
    args.push_back(FormatDouble(e.ci_low));
    args.push_back(FormatDouble(e.ci_high));
  }
  return Response::Ok(tag, std::move(args));
}

void ServiceServer::HandleStreamTick(const std::shared_ptr<Tenant>& tenant,
                                     PendingOp op) {
  if (tenant->stream == nullptr) {
    op.conn->Send(Response::Error(
        op.request.tag, "BAD_REQUEST",
        "session is not windowed (start dbimd with --window)"));
    return;
  }
  const size_t expired = tenant->stream->AdvanceTo(op.request.tick);
  NotifySubscribers(tenant);  // before the ack, as in HandleApply
  op.conn->Send(Response::Ok(
      op.request.tag, {std::to_string(expired),
                       std::to_string(tenant->stream->num_live())}));
}

void ServiceServer::HandleSubscribe(const std::shared_ptr<Tenant>& tenant,
                                    PendingOp op) {
  const size_t current = session_.NumMinimalSubsets(tenant->handle);
  Tenant::Subscriber sub;
  sub.conn = op.conn;
  sub.tag = op.request.tag;
  sub.threshold = op.request.threshold;
  sub.last = static_cast<double>(current);
  tenant->subscribers.push_back(std::move(sub));
  op.conn->Send(Response::Ok(op.request.tag, {std::to_string(current)}));
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
      it->conn->Send(Response::Item(
          it->tag,
          {is_above ? "up" : "down", FormatDouble(current)}));
    }
    it->last = current;
    ++it;
  }
}

void ServiceServer::HandleStats(const std::shared_ptr<Tenant>& tenant,
                                PendingOp op) {
  const TablePrinter table =
      ConstraintStatsTable(session_.ConstraintStats(tenant->handle));
  op.conn->Send(Response::Ok(
      op.request.tag, {EncodeToken(table.ToJson("constraint_stats")),
                       EncodeToken(DurabilityJson())}));
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

void ServiceServer::HandleDump(const std::shared_ptr<Tenant>& tenant,
                               PendingOp op) {
  const std::string& tag = op.request.tag;
  const auto rows = session_.CopyFacts(tenant->handle);
  for (const auto& [id, values] : rows) {
    std::vector<std::string> args;
    args.push_back(std::to_string(id));
    for (const Value& v : values) args.push_back(EncodeValue(v));
    op.conn->Send(Response::Item(tag, std::move(args)));
  }
  op.conn->Send(Response::Ok(tag, {std::to_string(rows.size())}));
}

void ServiceServer::HandleUnregister(const std::shared_ptr<Tenant>& tenant,
                                     PendingOp op) {
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
    if (it != tenants_.end() && it->second == tenant) tenants_.erase(it);
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
    ExecuteQueued(tenant, std::move(op));
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
