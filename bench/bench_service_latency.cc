// Service latency (not a paper figure): end-to-end p50/p99 of the dbimd
// wire protocol under mixed Apply/Evaluate traffic, on a loopback server
// started in-process.
//
// Each row fixes a (clients, sessions) shape and drives the shared
// loadgen workload (src/service/workload.h) twice over the same seeds:
// pipelined (16 outstanding requests per connection) and unpipelined
// (strict request/response lock-step). Per-operation latency is
// issue-to-terminal-reply, so server-side queue wait under contention is
// included — that is the number a tenant of the daemon actually sees.
//
// The CI gate (check_bench_regression.py --self) asserts "pipelined (s)"
// never exceeds "unpipelined (s)": batching requests into the kernel and
// letting the server's per-session FIFO drain them must not be slower
// than paying a full round-trip per operation. The ratio is the direct
// measure of what per-connection pipelining buys.
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "service/client.h"
#include "service/server.h"
#include "service/spec.h"
#include "service/workload.h"

namespace dbim::bench {
namespace {

struct CellResult {
  double seconds = 0.0;           // slowest client's wall time
  size_t num_busy = 0;            // total admission rejections
  std::vector<double> latencies_ms;  // all clients' completed ops
};

// Starts a fresh server, registers `sessions` names, and drives `clients`
// threads (round-robin over the sessions) for `ops` operations each at
// `depth` outstanding requests. Fresh server per cell so pipelined and
// unpipelined runs replay identical traffic against identical state.
CellResult RunCell(const BenchArgs& args, size_t clients, size_t sessions,
                   size_t ops, size_t depth) {
  const ServiceSpec spec = ExampleSpec();
  ServiceOptions options;
  options.num_workers = 2;
  options.session = args.Options();
  options.session.registry.include_mc = false;
  // Polynomial measures only: the point is wire + scheduling latency, not
  // the NP-hard measures' search time (bench_fig5_imc covers those).
  options.session.registry.only = {"I_d", "I_MI", "I_P", "I_MV"};
  ServiceServer server(spec.schema, spec.relation, spec.constraints,
                       options);
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "server: %s\n", error.c_str());
    std::exit(1);
  }
  {
    ServiceClient setup;
    if (!setup.Connect("127.0.0.1", server.port(), &error)) {
      std::fprintf(stderr, "connect: %s\n", error.c_str());
      std::exit(1);
    }
    for (size_t s = 0; s < sessions; ++s) {
      if (!setup.Register("bench" + std::to_string(s), &error)) {
        std::fprintf(stderr, "register: %s\n", error.c_str());
        std::exit(1);
      }
    }
  }

  ServiceWorkloadOptions workload;
  workload.arity = spec.schema->relation(spec.relation).arity();
  workload.pipeline_depth = depth;
  // One client per session + locally predicted insert ids: the op stream
  // is then a pure function of the seed, so the pipelined and lock-step
  // runs the gate compares replay byte-identical traffic. (With learned
  // ids, a deep pipeline starves the live set and skews the mix.)
  workload.predict_ids = true;
  // Sparse domain: few value collisions, so evaluations stay cheap and
  // near-constant cost and the measured quantity is wire + scheduling
  // latency, not violation-set growth (bench_churn_throughput owns that).
  workload.domain = 500;
  std::vector<ServiceWorkloadResult> results(clients);
  std::vector<double> seconds(clients, 0.0);
  std::vector<std::string> errors(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c]() {
      ServiceClient client;
      if (!client.Connect("127.0.0.1", server.port(), &errors[c])) return;
      const std::string session = "bench" + std::to_string(c % sessions);
      Timer timer;
      if (!RunServiceWorkload(client, session, ops, args.seed + c, workload,
                              &results[c], &errors[c])) {
        return;
      }
      seconds[c] = timer.Seconds();
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  CellResult cell;
  for (size_t c = 0; c < clients; ++c) {
    if (!errors[c].empty() || seconds[c] == 0.0) {
      std::fprintf(stderr, "bench client %zu: %s\n", c, errors[c].c_str());
      std::exit(1);
    }
    cell.seconds = std::max(cell.seconds, seconds[c]);
    cell.num_busy += results[c].num_busy;
    cell.latencies_ms.insert(cell.latencies_ms.end(),
                             results[c].latencies_ms.begin(),
                             results[c].latencies_ms.end());
  }
  return cell;
}

int Run(int argc, char** argv) {
  const BenchArgs args = BenchArgs::Parse(argc, argv);
  PrintHeader("service-latency",
              "dbimd wire p50/p99 under mixed Apply/Evaluate; pipelined vs "
              "lock-step round trips");
  const size_t ops = args.SampleSize(240, 2000);

  struct Shape {
    size_t clients, sessions;
  };
  const std::vector<Shape> shapes = {{1, 1}, {2, 2}, {4, 4}};

  TablePrinter table({"clients", "sessions", "ops/client", "busy",
                      "pipelined (s)", "p50 (ms)", "p99 (ms)",
                      "unpipelined (s)", "lockstep p50 (ms)"});
  for (const Shape& shape : shapes) {
    const CellResult piped =
        RunCell(args, shape.clients, shape.sessions, ops, 16);
    const CellResult lockstep =
        RunCell(args, shape.clients, shape.sessions, ops, 1);
    table.AddRow({std::to_string(shape.clients),
                  std::to_string(shape.sessions), std::to_string(ops),
                  std::to_string(piped.num_busy),
                  TablePrinter::Num(piped.seconds, 4),
                  TablePrinter::Num(LatencyPercentile(piped.latencies_ms, 50),
                                    3),
                  TablePrinter::Num(LatencyPercentile(piped.latencies_ms, 99),
                                    3),
                  TablePrinter::Num(lockstep.seconds, 4),
                  TablePrinter::Num(
                      LatencyPercentile(lockstep.latencies_ms, 50), 3)});
  }
  Emit(args, "service_latency", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) { return dbim::bench::Run(argc, argv); }
