// Workload `service-durable`: multi-tenant traffic to the measure service
// with durability on. An in-process ServiceServer (2 workers) runs over a
// DurableSessionStore on the flat-file backend (group-commit cap at its
// default of 64). Two closed-loop clients, one connection each, drive their
// own sessions with the shared APPLY/EVALUATE generator
// (RunServiceWorkload): pipeline depth 16, insert ids predicted locally,
// sparse value domain, EVALUATE every 8 ops with polynomial measures only.
// Wire parsing, scheduling and WAL appends do the work; detection and
// measures stay cheap. The WAL appears in no other workload.
//
// The log is written without fsync (the store's sync = false, dbimd's
// --no-sync): on the shared host's virtual disk fsync latency doubles for
// minutes at a time, which halved ops_per_s and doubled evaluate_p90_ms
// between runs of the same code, far past the benchmark's bounds.
//
// Each client opens a fresh session every kChunkOps ops, so session size —
// and with it evaluation cost — is the same in every part of the run; it
// keeps the last kLiveSessions of them and unregisters older ones, so the
// server's memory does not grow with the number of ops served. The
// generator returns one latency vector in issue order; this file splits
// it by verb and charges every op that did not complete OK (BUSY,
// transport or protocol error) as failed at +inf latency.
//
// After the run the server stops and a fresh store recovers the directory:
// every session's fact count and report must equal its last acked EVALUATE.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "counting_backend.h"
#include "harness.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/spec.h"
#include "service/workload.h"
#include "storage/durable_store.h"

namespace perfbench {
namespace {

using dbim::Timer;

constexpr size_t kEvaluateEvery = 8;
// Ops per session; a multiple of kEvaluateEvery, so a session's last op is
// an EVALUATE and its report covers the session's final state.
constexpr size_t kChunkOps = 1024;
constexpr size_t kLiveSessions = 8;  // per client
constexpr size_t kPipelineDepth = 16;
constexpr int64_t kDomain = 500;
// Request lines in the protocol replay, and passes over them.
constexpr size_t kReplayLines = 4096;
constexpr int kReplayPasses = 9;
// Server starts per run; setup_s is their median. A start takes about
// 1 ms, including the fsyncs that commit a new store's manifest, so many
// of them keep one slow fsync from moving the median.
constexpr int kSetupRuns = 25;
const std::vector<std::string> kMeasures = {"I_d", "I_MI", "I_P", "I_lin_R"};

dbim::SessionOptions ServiceSessionOptions() {
  dbim::SessionOptions options = dbim::SessionOptions().WithThreads(kThreads);
  for (const std::string& name : kMeasures) options.registry.WithMeasure(name);
  return options;
}

// One durable server over one store directory, plus connected clients.
struct Service {
  CountingBackend* backend = nullptr;  // owned by the store
  std::unique_ptr<dbim::storage::DurableSessionStore> store;
  std::unique_ptr<dbim::ServiceServer> server;
  std::vector<std::unique_ptr<dbim::ServiceClient>> clients;
};

bool Start(const std::string& dir, const dbim::ServiceSpec& spec,
           Service* service, std::string* error) {
  std::filesystem::create_directories(dir);
  auto backend = std::make_unique<CountingBackend>(
      dbim::storage::CreateFlatFileBackend(dir));
  service->backend = backend.get();
  dbim::storage::DurabilityOptions durability;
  durability.sync = false;
  service->store = std::make_unique<dbim::storage::DurableSessionStore>(
      spec.schema, std::move(backend), durability);
  if (!service->store->Open(error)) return false;
  dbim::ServiceOptions options;
  options.num_workers = kThreads;
  options.session = ServiceSessionOptions();
  options.store = service->store.get();
  service->server = std::make_unique<dbim::ServiceServer>(
      spec.schema, spec.relation, spec.constraints, options);
  if (!service->server->Start(error)) return false;
  for (size_t c = 0; c < kThreads; ++c) {
    service->clients.push_back(std::make_unique<dbim::ServiceClient>());
    if (!service->clients.back()->Connect("127.0.0.1",
                                          service->server->port(), error)) {
      return false;
    }
  }
  return true;
}

void Stop(Service* service) {
  service->clients.clear();
  if (service->server != nullptr) service->server->Stop();
  service->server.reset();
  service->store.reset();
  service->backend = nullptr;
}

// What one client saw.
struct ClientRun {
  // Issue to reply, +inf when failed; applies only before tracing began.
  Reservoir apply_ms{1};
  Reservoir evaluate_ms{2};
  size_t ok = 0;
  size_t attempted = 0;
  // Each live session's name and last acked EVALUATE report.
  std::map<std::string, dbim::WireReport> acked;
  std::string last;  // the session acked last
  // OK ops and busy seconds of sessions started before / after tracing
  // began.
  double untraced_ops = 0.0, untraced_s = 0.0;
  double traced_ops = 0.0, traced_s = 0.0;
  std::string error;
};

void DriveClient(dbim::ServiceClient& client, size_t index, const Args& args,
                 size_t arity, double traced_from, const Timer& run,
                 ClientRun* out) {
  dbim::ServiceWorkloadOptions options;
  options.arity = arity;
  options.domain = kDomain;
  options.evaluate_every = kEvaluateEvery;
  options.pipeline_depth = kPipelineDepth;
  options.predict_ids = true;
  for (size_t k = 0; run.Seconds() < args.seconds; ++k) {
    const std::string name =
        "c" + std::to_string(index) + "s" + std::to_string(k % kLiveSessions);
    if (k >= kLiveSessions) {
      out->acked.erase(name);
      if (!client.Unregister(name, &out->error)) return;
    }
    const double started = run.Seconds();
    const bool traced = started >= traced_from;
    const uint64_t seed = args.seed * 1000003 + index * 7919 + k;
    dbim::ServiceWorkloadResult result;
    const bool ok =
        client.Register(name, &out->error) &&
        dbim::RunServiceWorkload(client, name, kChunkOps, seed, options,
                                 &result, &out->error);
    const double busy = run.Seconds() - started;
    (traced ? out->traced_ops : out->untraced_ops) +=
        static_cast<double>(result.num_ok);
    (traced ? out->traced_s : out->untraced_s) += busy;
    for (size_t i = 0; i < kChunkOps; ++i) {
      const double ms = i < result.num_ok
                            ? result.latencies_ms[i]
                            : std::numeric_limits<double>::infinity();
      if (i % kEvaluateEvery == kEvaluateEvery - 1) {
        out->evaluate_ms.Add(ms);
      } else if (!traced) {
        out->apply_ms.Add(ms);
      }
    }
    out->ok += result.num_ok;
    out->attempted += kChunkOps;
    if (!ok) return;
    out->acked[name] = result.last_report;
    out->last = name;
  }
}

bool SameReport(const dbim::WireReport& a, const dbim::WireReport& b) {
  return a.num_facts == b.num_facts &&
         a.num_minimal_subsets == b.num_minimal_subsets &&
         a.truncated == b.truncated && a.measures == b.measures;
}

// Per-line cost in ns of ParseRequest over request lines with the
// generator's op mix, and of FormatResponse over the matching replies
// (EVALUATE replies are `evaluate_reply`, one the server really sent).
// Medians over passes; false when a line does not parse.
bool ReplayProtocol(const Args& args, size_t arity,
                    const dbim::Response& evaluate_reply, double* parse_ns,
                    double* format_ns) {
  dbim::Rng rng(args.seed);
  std::vector<std::string> lines;
  std::vector<dbim::Response> replies;
  dbim::FactId next_id = 0;
  for (size_t i = 0; i < kReplayLines; ++i) {
    auto value = [&]() { return dbim::Value(rng.UniformInt(0, kDomain - 1)); };
    dbim::Request request;
    dbim::Response reply = dbim::Response::Ok("");
    const size_t draw = rng.UniformIndex(4);
    if (i % kEvaluateEvery == kEvaluateEvery - 1) {
      request = dbim::Request::Evaluate("c0s0");
      reply = evaluate_reply;
    } else if (draw == 0 && next_id > 0) {
      request = dbim::Request::Delete(
          "c0s0", static_cast<dbim::FactId>(rng.UniformIndex(next_id)));
    } else if (draw == 3 && next_id > 0) {
      const auto id = static_cast<dbim::FactId>(rng.UniformIndex(next_id));
      const auto attr = static_cast<dbim::AttrIndex>(rng.UniformIndex(arity));
      request = dbim::Request::Update("c0s0", id, attr, value());
    } else {
      std::vector<dbim::Value> values;
      for (size_t a = 0; a < arity; ++a) values.push_back(value());
      request = dbim::Request::Insert("c0s0", std::move(values));
      reply.args = {std::to_string(next_id++)};
    }
    request.tag = "c" + std::to_string(i + 1);
    reply.tag = request.tag;
    lines.push_back(dbim::FormatRequest(request));
    replies.push_back(std::move(reply));
  }
  std::vector<double> parse;
  std::vector<double> format;
  size_t bytes = 0;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    Timer timer;
    for (const std::string& line : lines) {
      dbim::Request parsed;
      std::string error;
      if (!dbim::ParseRequest(line, &parsed, &error)) return false;
    }
    parse.push_back(timer.Seconds() * 1e9 / kReplayLines);
    timer.Reset();
    for (const dbim::Response& reply : replies) {
      bytes += dbim::FormatResponse(reply).size();
    }
    format.push_back(timer.Seconds() * 1e9 / kReplayLines);
  }
  *parse_ns = Median(parse);
  *format_ns = Median(format);
  return bytes > 0;
}

}  // namespace

void RunServiceDurable(const Args& args, Outcome* out) {
  const dbim::ServiceSpec spec = dbim::ExampleSpec();
  const size_t arity = spec.schema->relation(spec.relation).arity();
  const std::string root = args.workdir + "/service-durable";

  std::string error;
  int starts = 0;
  auto start = [&]() {
    Service started;
    const std::string dir = root + "/store" + std::to_string(starts++);
    if (!Start(dir, spec, &started, &error)) {
      out->Fail("service start: " + error);
    }
    return started;
  };
  // The run serves from the first start's store; the others are stopped
  // as soon as they are timed. Half of the starts come before the run and
  // half after it (clients idle), so setup_s samples the disk's fsync
  // latency at both ends of the run.
  SpreadSetup setup(args.seconds, kSetupRuns);
  Service service = setup.Rep(start);
  setup.RepsDue(args.seconds / 2, start);
  const std::string dir = root + "/store0";
  if (!out->ok()) {
    Stop(&service);
    return;
  }

  // WAL spans are recorded over the last two thirds of a traced run.
  const double traced_from =
      args.trace ? args.seconds / 3 : std::numeric_limits<double>::infinity();
  std::vector<ClientRun> runs(kThreads);
  Timer run;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c]() {
      DriveClient(*service.clients[c], c, args, arity, traced_from, run,
                  &runs[c]);
    });
  }
  if (args.trace) {
    std::this_thread::sleep_for(std::chrono::duration<double>(traced_from));
    service.backend->set_timing(true);
  }
  for (std::thread& t : threads) t.join();
  const double wall = run.Seconds();
  // Taken before the checks below: recovery replays the WAL tail since the
  // last checkpoint, whose length depends on where the run stopped.
  const double peak_rss_mb = PeakRssMb();
  setup.Finish(start);

  // A fresh EVALUATE of each client's last session must repeat its last
  // acked report; its reply line also seeds the protocol replay.
  dbim::Response evaluate_reply;
  for (size_t c = 0; c < kThreads; ++c) {
    if (!runs[c].error.empty()) {
      std::fprintf(stderr, "client %zu: %s\n", c, runs[c].error.c_str());
    }
    if (runs[c].acked.empty()) continue;
    const std::string& name = runs[c].last;
    const dbim::WireReport& report = runs[c].acked.at(name);
    dbim::ServiceClient& client = *service.clients[c];
    dbim::AwaitedResponse response;
    dbim::WireReport again;
    const std::string tag = client.Issue(dbim::Request::Evaluate(name), &error);
    if (tag.empty() || !client.Await(tag, &response, &error) ||
        !response.ok() ||
        !dbim::ServiceClient::ParseReportArgs(response.final.args, 0, &again,
                                              &error) ||
        !SameReport(report, again)) {
      out->Fail("re-EVALUATE of " + name + " differs from its last ack");
    }
    evaluate_reply = response.final;
  }

  service.server->Stop();  // no WAL writer runs past this point
  const size_t rejected = service.server->num_rejected();
  const CountingBackend& wal = *service.backend;
  const std::vector<double> append_us = wal.append_us();
  const uint64_t wal_syncs = wal.syncs();
  const uint64_t wal_bytes = wal.bytes();
  Stop(&service);

  // Durability: a fresh store recovers the directory into a fresh session.
  double recover_s = 0.0;
  {
    auto store = std::make_unique<dbim::storage::DurableSessionStore>(
        spec.schema, dbim::storage::CreateFlatFileBackend(dir));
    dbim::MeasureSession session(
        spec.schema, spec.constraints,
        ServiceSessionOptions().WithDurability(store.get()));
    std::vector<dbim::storage::RecoveredSession> recovered;
    Timer timer;
    if (!store->Open(&error) || !store->Recover(&session, &recovered, &error)) {
      out->Fail("recovery: " + error);
    }
    recover_s = timer.Seconds();
    std::map<std::string, dbim::DbHandle> handles;
    for (const auto& r : recovered) handles[r.name] = r.handle;
    size_t live = 0;
    for (const ClientRun& r : runs) live += r.acked.size();
    if (handles.size() != live) {
      out->Fail("recovered " + std::to_string(handles.size()) +
                " sessions, expected the " + std::to_string(live) + " live");
    }
    for (const ClientRun& r : runs) {
      for (const auto& [name, report] : r.acked) {
        auto it = handles.find(name);
        if (it == handles.end()) {
          out->Fail("acked session " + name + " not recovered");
          continue;
        }
        const dbim::BatchReport now = session.Evaluate(it->second);
        dbim::WireReport recovered_report;
        recovered_report.num_facts = session.NumFacts(it->second);
        recovered_report.num_minimal_subsets = now.num_minimal_subsets;
        recovered_report.truncated = now.truncated;
        for (const dbim::MeasureResult& m : now.measures) {
          recovered_report.measures.emplace_back(m.name, m.value);
        }
        if (!SameReport(report, recovered_report)) {
          out->Fail("recovered session " + name + " differs from its ack");
        }
      }
    }
  }
  std::filesystem::remove_all(root);

  // Both clients serve about as many ops, so their merged samples are
  // close to a uniform sample of all ops.
  std::vector<double> apply_ms;
  std::vector<double> evaluate_ms;
  size_t applies = 0;
  size_t evaluates = 0;
  size_t ok = 0;
  double untraced_ops = 0, untraced_s = 0, traced_ops = 0, traced_s = 0;
  for (const ClientRun& r : runs) {
    apply_ms.insert(apply_ms.end(), r.apply_ms.samples().begin(),
                    r.apply_ms.samples().end());
    evaluate_ms.insert(evaluate_ms.end(), r.evaluate_ms.samples().begin(),
                       r.evaluate_ms.samples().end());
    applies += r.apply_ms.seen();
    evaluates += r.evaluate_ms.seen();
    ok += r.ok;
    out->attempted += r.attempted;
    untraced_ops += r.untraced_ops;
    untraced_s += r.untraced_s;
    traced_ops += r.traced_ops;
    traced_s += r.traced_s;
  }
  out->failed = out->attempted - ok;
  const size_t applies_ok = ok - ok / kEvaluateEvery;
  const double per_apply =
      1.0 / static_cast<double>(std::max<size_t>(1, applies_ok));

  if (!args.trace) {
    out->Set("setup_s", setup.MedianSeconds());
    out->Set("ops_per_s", static_cast<double>(ok) / wall);
    out->Set("evaluate_p50_ms", Percentile(evaluate_ms, 50));
    out->Set("evaluate_p90_ms", Percentile(evaluate_ms, 90));
    out->Set("peak_rss_mb", peak_rss_mb);
    out->Note("peak_rss_with_recovery_mb", PeakRssMb(), "MB");
    out->Note("apply_p50_us", Percentile(apply_ms, 50) * 1e3, "us");
    out->Note("apply_p99_us", Percentile(apply_ms, 99) * 1e3, "us");
    out->Note("failed_frac",
              static_cast<double>(out->failed) /
                  static_cast<double>(std::max<uint64_t>(1, out->attempted)),
              "ratio");
    out->Note("applies", static_cast<double>(applies), "count");
    out->Note("evaluates", static_cast<double>(evaluates), "count");
    out->Note("wal.syncs_per_apply", wal_syncs * per_apply, "ratio");
    out->Note("server.rejected", static_cast<double>(rejected), "count");
    return;
  }

  double parse_ns = 0.0;
  double format_ns = 0.0;
  if (!ReplayProtocol(args, arity, evaluate_reply, &parse_ns, &format_ns)) {
    out->Fail("protocol replay: a recorded line does not round-trip");
  }
  // Busy time of the timed layers over the traced phase: every WAL call,
  // plus one request parse and one reply format per op at replayed cost.
  double covered = traced_ops * (parse_ns + format_ns) * 1e-9;
  for (const double us : append_us) covered += us * 1e-6;

  out->Set("client.apply_us.p50", Percentile(apply_ms, 50) * 1e3);
  out->Set("client.apply_us.p99", Percentile(apply_ms, 99) * 1e3);
  out->Set("wal.append_us.p50", Percentile(append_us, 50));
  out->Set("wal.append_us.p99", Percentile(append_us, 99));
  out->Set("wal.syncs_per_apply", wal_syncs * per_apply);
  out->Set("wal.bytes_per_apply", wal_bytes * per_apply);
  out->Set("storage.recover_s", recover_s);
  out->Set("protocol.parse_ns", parse_ns);
  out->Set("protocol.format_ns", format_ns);
  out->Set("server.rejected", static_cast<double>(rejected));
  out->Set("unaccounted_frac", 1.0 - covered / (wall - traced_from));
  out->Set("trace_overhead_frac",
           (untraced_ops / untraced_s) / (traced_ops / traced_s) - 1.0);
}

}  // namespace perfbench
