// Workload `repair-loop`: progress indication inside a cleaning loop (the
// paper's Fig. 6b use). One in-process closed-loop client owns a
// MeasureSession over Tax (n = 10 000) and replays a recorded trace of cell
// updates, calling Evaluate after every 16 of them.
//
// The trace is RNoise (beta = 0) in which every corrupted cell is restored
// to its clean value a fixed lag later, and it is circular (the first
// restores undo the last corruptions), so violation density is stationary
// and the cost per op does not drift with run length. Work splits between
// incremental maintenance (Apply) and snapshot + conflict graph + measures
// (Evaluate); the detector runs only in set-up, to build the index.
//
// The traced run replaces Evaluate by Violations + MeasureContext +
// per-measure Evaluate, timed from here, and replays the trace once through
// a standalone IncrementalViolationIndex for the maintenance layer alone.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "harness.h"
#include "measures/session.h"
#include "relational/operations.h"
#include "violations/incremental.h"

namespace perfbench {
namespace {

using dbim::Timer;

constexpr size_t kTuples = 10000;
constexpr size_t kOpsPerEvaluate = 16;
// Noise updates in one lap of the circular trace (the trace holds twice as
// many ops: each corruption plus one restore).
constexpr size_t kTraceUpdates = 8192;
// Updates after which a corrupted cell is restored: about this many cells
// are dirty at any time (on Tax, about 3 000 minimal inconsistent subsets).
// With a lag of 64 (about 12 000 subsets) an evaluation's working set spills
// out of the per-core cache into the shared one, and runs of the same code
// spread up to 20% with the neighbours' load; at 16 they spread about 11%.
constexpr size_t kLag = 16;
// Evaluations folded into measures.checksum: a prefix every run reaches,
// so the checksum is a pure function of the seed.
constexpr size_t kChecksumEvaluates = 8;
constexpr double kVacuumWaste = 0.5;
// Cycles at the start of the untraced phase left out of its statistics,
// while the first evaluations fill caches and grow buffers.
constexpr size_t kWarmupCycles = 32;
// Set-ups per run (about 0.7 s each); setup_s is their median.
constexpr int kSetupRuns = 9;
// I_MV is not in the measure registry, so the polynomial set is these.
const std::vector<std::string> kMeasures = {"I_d", "I_MI", "I_P", "I_lin_R"};

struct LoopState {
  dbim::Dataset dataset;  // the clean instance
  std::vector<dbim::RepairOperation> trace;
  std::unique_ptr<dbim::MeasureSession> session;
  dbim::DbHandle handle = 0;
};

std::vector<dbim::RepairOperation> RecordTrace(const dbim::Dataset& dataset,
                                               uint64_t seed) {
  struct Cell {
    dbim::FactId id;
    dbim::AttrIndex attr;
  };
  const dbim::Database& clean = dataset.data;
  auto clean_value = [&](const Cell& c) {
    return clean.pool().value(clean.value_id(c.id, c.attr));
  };
  const dbim::RNoiseGenerator noise(clean, dataset.constraints, 0.0);
  dbim::Database sim = clean;
  dbim::Rng rng(seed);
  std::vector<Cell> cells;
  std::vector<dbim::RepairOperation> corruptions;
  size_t restored = 0;
  while (corruptions.size() < kTraceUpdates) {
    noise.Step(sim, rng, [&](dbim::FactId id, dbim::AttrIndex attr,
                             dbim::Value value) {
      sim.UpdateValue(id, attr, value);
      cells.push_back(Cell{id, attr});
      corruptions.push_back(
          dbim::RepairOperation::Update(id, attr, std::move(value)));
    });
    // Restores now due, applied to the simulation so later noise steps
    // (a typo edits the current cell) see what replay will see.
    for (; restored + kLag < cells.size(); ++restored) {
      sim.UpdateValue(cells[restored].id, cells[restored].attr,
                      clean_value(cells[restored]));
    }
  }
  // A last step may have overshot the lap by a few updates.
  corruptions.erase(corruptions.begin() + kTraceUpdates, corruptions.end());
  cells.resize(kTraceUpdates);
  std::vector<dbim::RepairOperation> trace;
  trace.reserve(2 * kTraceUpdates);
  for (size_t j = 0; j < kTraceUpdates; ++j) {
    trace.push_back(corruptions[j]);
    const Cell& due = cells[(j + kTraceUpdates - kLag) % kTraceUpdates];
    trace.push_back(
        dbim::RepairOperation::Update(due.id, due.attr, clean_value(due)));
  }
  return trace;
}

}  // namespace

void RunRepairLoop(const Args& args, Outcome* out) {
  // Auto-vacuum bounds the pool's dead typo values and the index's dead
  // subset slots, which would otherwise grow with run length and make the
  // cost per op depend on how long the run was.
  dbim::SessionOptions options =
      dbim::SessionOptions().WithThreads(kThreads).WithAutoVacuum(kVacuumWaste);
  for (const std::string& name : kMeasures) options.registry.WithMeasure(name);

  std::vector<double> datagen_seconds;
  std::vector<double> register_seconds;
  auto set_up = [&]() {
    LoopState state{dbim::Dataset(), {}, nullptr, 0};
    Timer timer;
    state.dataset =
        dbim::MakeDataset(dbim::DatasetId::kTax, kTuples, args.seed);
    state.trace = RecordTrace(state.dataset, args.seed);
    datagen_seconds.push_back(timer.Seconds());
    state.session = std::make_unique<dbim::MeasureSession>(
        state.dataset.schema, state.dataset.constraints, options);
    timer.Reset();
    state.handle = state.session->Register(state.dataset.data);
    register_seconds.push_back(timer.Seconds());
    // Warm up to the stationary density: one lag's worth of steps.
    for (size_t i = 0; i < 2 * kLag; ++i) {
      state.session->Apply(state.handle, state.trace[i]);
    }
    return state;
  };
  // A traced run reports no setup_s, so it sets up before its timed phase.
  SpreadSetup setup(args.trace ? 0.0 : args.seconds, kSetupRuns);
  const LoopState state = setup.Rep(set_up);
  setup.RepsDue(0.0, set_up);
  dbim::MeasureSession& session = *state.session;
  const dbim::DbHandle handle = state.handle;

  size_t next_op = 2 * kLag;
  std::vector<double> apply_us;         // untraced phase
  std::vector<double> traced_apply_us;  // traced phase
  std::vector<double> evaluate_ms;
  std::vector<double> cycle_ms;
  std::vector<double> traced_cycle_ms;
  size_t evaluates = 0;
  size_t total_subsets = 0;  // summed over untraced evaluations
  uint64_t checksum = 0;
  LayerTimes layers;

  auto checksum_report = [&](size_t subsets,
                             const std::vector<double>& values) {
    if (evaluates >= kChecksumEvaluates) return;
    checksum = MixChecksum(checksum, static_cast<double>(subsets));
    for (const double v : values) checksum = MixChecksum(checksum, v);
  };

  // One closed-loop cycle: kOpsPerEvaluate applies, then one evaluation.
  auto cycle = [&](bool traced) {
    Timer cycle_timer;
    std::vector<double>& applies = traced ? traced_apply_us : apply_us;
    for (size_t k = 0; k < kOpsPerEvaluate; ++k) {
      const dbim::RepairOperation& op =
          state.trace[next_op++ % state.trace.size()];
      Timer timer;
      session.Apply(handle, op);
      applies.push_back(timer.Seconds() * 1e6);
    }
    std::vector<double> values;
    if (!traced) {
      Timer timer;
      const dbim::BatchReport report = session.Evaluate(handle);
      evaluate_ms.push_back(timer.Millis());
      for (const dbim::MeasureResult& m : report.measures) {
        values.push_back(m.value);
      }
      checksum_report(report.num_minimal_subsets, values);
      total_subsets += report.num_minimal_subsets;
    } else {
      Timer timer;
      dbim::ViolationSet violations = session.Violations(handle);
      layers.Add("session.snapshot", timer.Seconds());
      const size_t subsets = violations.num_minimal_subsets();
      dbim::MeasureContext context(session.detector(), session.db(handle),
                                   std::move(violations));
      timer.Reset();
      context.conflict_graph();
      layers.Add("conflict_graph", timer.Seconds());
      for (const auto& measure : session.measures()) {
        timer.Reset();
        values.push_back(measure->Evaluate(context));
        layers.Add("measures." + measure->name(), timer.Seconds());
      }
      checksum_report(subsets, values);
    }
    ++evaluates;
    (traced ? traced_cycle_ms : cycle_ms).push_back(cycle_timer.Millis());
  };

  const double untraced_budget = args.trace ? args.seconds / 3 : args.seconds;
  Timer run;
  do {
    setup.RepsDue(run.Seconds(), set_up);
    cycle(false);
  } while (run.Seconds() < untraced_budget ||
           evaluates < kChecksumEvaluates);
  setup.Finish(set_up);
  const size_t warmup = std::min(kWarmupCycles, cycle_ms.size() - 1);
  cycle_ms.erase(cycle_ms.begin(), cycle_ms.begin() + warmup);
  evaluate_ms.erase(evaluate_ms.begin(), evaluate_ms.begin() + warmup);
  apply_us.erase(apply_us.begin(),
                 apply_us.begin() + warmup * kOpsPerEvaluate);
  double traced_seconds = 0.0;
  if (args.trace) {
    Timer traced_run;
    do {
      cycle(true);
    } while (run.Seconds() < args.seconds);
    traced_seconds = traced_run.Seconds();
  }

  // Correctness: the maintained session equals a fresh one-shot evaluation
  // of the same database, with no full detection on the session's behalf.
  const dbim::BatchReport final_report = session.Evaluate(handle);
  const dbim::Database copy = session.db(handle);
  const dbim::BatchReport fresh = session.EvaluateOne(copy);
  bool same = final_report.num_minimal_subsets == fresh.num_minimal_subsets &&
              final_report.measures.size() == fresh.measures.size();
  for (size_t m = 0; same && m < fresh.measures.size(); ++m) {
    same = final_report.measures[m].name == fresh.measures[m].name &&
           final_report.measures[m].value == fresh.measures[m].value;
  }
  if (!same) out->Fail("final session report differs from EvaluateOne");
  if (session.num_full_detections() != 0) {
    out->Fail("session ran " + std::to_string(session.num_full_detections()) +
              " full detections");
  }

  const size_t applies = apply_us.size() + traced_apply_us.size();
  out->attempted = applies + evaluates;
  if (!args.trace) {
    const size_t cycles = cycle_ms.size();
    double untraced_ms = 0.0;  // cycles only, not the set-ups between
    for (const double ms : cycle_ms) untraced_ms += ms;
    out->Set("setup_s", setup.MedianSeconds());
    out->Set("ops_per_s",
             static_cast<double>(cycles * (kOpsPerEvaluate + 1)) /
                 (untraced_ms * 1e-3));
    out->Set("evaluate_p50_ms", Percentile(evaluate_ms, 50));
    out->Set("evaluate_p90_ms", Percentile(evaluate_ms, 90));
    out->Set("peak_rss_mb", PeakRssMb());
    out->Note("apply_p50_us", Percentile(apply_us, 50), "us");
    out->Note("apply_p99_us", Percentile(apply_us, 99), "us");
    out->Note("facts_per_s",
              static_cast<double>(kTuples * cycles) / (untraced_ms * 1e-3),
              "facts/s");
    out->Note("failed_frac", 0.0, "ratio");
    out->Note("applies", static_cast<double>(apply_us.size()), "count");
    out->Note("mean_subsets",
              static_cast<double>(total_subsets) / (cycles + warmup),
              "count");
    out->Note("evaluates", static_cast<double>(evaluates), "count");
    out->Note("measures.checksum", static_cast<double>(checksum), "count");
    return;
  }

  // The maintenance layer alone: one lap of the trace through a standalone
  // index (default IncrementalOptions) built over the clean instance.
  dbim::DetectorOptions build;
  build.num_threads = kThreads;
  dbim::IncrementalViolationIndex index(state.dataset.schema,
                                        state.dataset.constraints,
                                        state.dataset.data, build);
  std::vector<double> index_us;
  for (const dbim::RepairOperation& op : state.trace) {
    Timer timer;
    index.Apply(op);
    index_us.push_back(timer.Seconds() * 1e6);
  }
  const dbim::ViolationSet scratch =
      session.detector().FindViolations(index.db());
  if (index.NumMinimalSubsets() != scratch.num_minimal_subsets()) {
    out->Fail("standalone index diverges from fresh detection");
  }
  const dbim::IncrementalDispatchStats& dispatch = index.dispatch_stats();

  double covered = 0.0;
  for (const double us : traced_apply_us) covered += us * 1e-6;
  covered += layers.TotalAll();

  out->Set("datagen.s", Median(datagen_seconds));
  out->Set("session.register_s", Median(register_seconds));
  out->Set("incremental.apply_us.p50", Percentile(index_us, 50));
  out->Set("incremental.apply_us.p99", Percentile(index_us, 99));
  out->Set("incremental.probed",
           static_cast<double>(dispatch.constraints_probed));
  out->Set("incremental.skipped",
           static_cast<double>(dispatch.constraints_skipped));
  out->Set("session.apply_us.p50", Percentile(traced_apply_us, 50));
  out->Set("session.apply_us.p99", Percentile(traced_apply_us, 99));
  out->Set("session.snapshot_ms",
           Median(layers.Spans("session.snapshot")) * 1e3);
  out->Set("conflict_graph.ms", Median(layers.Spans("conflict_graph")) * 1e3);
  for (const auto& measure : session.measures()) {
    const std::string layer = "measures." + measure->name();
    out->Set(layer + ".ms", Median(layers.Spans(layer)) * 1e3);
  }
  out->Set("measures.checksum", static_cast<double>(checksum));
  out->Set("client.apply_us.p50", Percentile(apply_us, 50));
  out->Set("client.apply_us.p99", Percentile(apply_us, 99));
  out->Set("unaccounted_frac", 1.0 - covered / traced_seconds);
  out->Set("trace_overhead_frac",
           Median(traced_cycle_ms) / Median(cycle_ms) - 1.0);
}

}  // namespace perfbench
