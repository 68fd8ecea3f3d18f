// Workload `audit`: reliability estimation of a new dataset, the paper's
// Table 3. Set-up generates all eight datasets at paper size / 100 and
// dirties each with n/1000 CONoise iterations. The timed phase measures the
// whole batch with MeasureSession::EvaluateOne (full registry minus I_MC,
// I_R under its 10 s deadline), round after round. Violation detection does
// nearly all the work; incremental maintenance, storage and the service do
// none.
//
// One op is one EvaluateOne call (one dataset measured); one evaluate is one
// round over all eight datasets. The traced run replaces EvaluateOne by its
// layers, timed from here: FindViolations, the conflict graph, then each
// measure on the shared MeasureContext. Every run checks that rounds are
// bit-identical; the traced run also checks the decomposition against them.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "harness.h"
#include "measures/session.h"

namespace perfbench {
namespace {

using dbim::Timer;

constexpr double kRepairDeadlineSeconds = 10.0;
// Set-ups per run (about 0.3 s each); setup_s is their median.
constexpr int kSetupRuns = 15;

struct AuditDataset {
  std::unique_ptr<dbim::MeasureSession> session;  // Sigma + measure registry
  dbim::Database db;                              // the dirtied instance
};

// |MI| and every measure value of one dataset's evaluation, in registry
// order. A measure that returned at its deadline is flagged: its value is a
// timing-dependent incumbent, so it is neither compared nor checksummed.
struct Evaluation {
  size_t subsets = 0;
  std::vector<std::string> names;
  std::vector<double> values;
  std::vector<bool> at_deadline;
};

struct Round {
  double seconds = 0.0;
  std::vector<Evaluation> evaluations;  // one per dataset
};

std::vector<AuditDataset> Generate(uint64_t seed, double* datagen_seconds) {
  std::vector<AuditDataset> datasets;
  dbim::Rng rng(seed);
  for (const dbim::DatasetId id : dbim::AllDatasets()) {
    Timer timer;
    const size_t n = dbim::PaperTupleCount(id) / 100;
    dbim::Dataset dataset = dbim::MakeDataset(id, n, seed);
    const dbim::CoNoiseGenerator noise(dataset.data, dataset.constraints);
    dbim::Rng noise_rng = rng.Fork();
    dbim::Database db = dataset.data;
    for (size_t i = 0; i < std::max<size_t>(n / 1000, 1); ++i) {
      noise.Step(db, noise_rng);
    }
    *datagen_seconds += timer.Seconds();
    auto session = std::make_unique<dbim::MeasureSession>(
        dataset.schema, dataset.constraints,
        dbim::SessionOptions()
            .WithThreads(kThreads)
            .WithIncludeMC(false)
            .WithRepairDeadline(kRepairDeadlineSeconds));
    datasets.push_back(AuditDataset{std::move(session), std::move(db)});
  }
  return datasets;
}

// One dataset through EvaluateOne.
Evaluation EvaluateOne(const AuditDataset& dataset) {
  const dbim::BatchReport report = dataset.session->EvaluateOne(dataset.db);
  Evaluation e;
  e.subsets = report.num_minimal_subsets;
  for (const dbim::MeasureResult& m : report.measures) {
    e.names.push_back(m.name);
    e.values.push_back(m.value);
    e.at_deadline.push_back(m.name == "I_R" &&
                            m.seconds >= kRepairDeadlineSeconds);
  }
  return e;
}

// The same evaluation decomposed into its layers, each call timed.
Evaluation EvaluateTraced(const AuditDataset& dataset, LayerTimes* layers) {
  const dbim::ViolationDetector& detector = dataset.session->detector();
  Timer timer;
  dbim::ViolationSet violations = detector.FindViolations(dataset.db);
  layers->Add("detector", timer.Seconds());
  Evaluation e;
  e.subsets = violations.num_minimal_subsets();
  dbim::MeasureContext context(detector, dataset.db, std::move(violations));
  timer.Reset();
  context.conflict_graph();
  layers->Add("conflict_graph", timer.Seconds());
  for (const auto& measure : dataset.session->measures()) {
    timer.Reset();
    const double value = measure->Evaluate(context);
    const double seconds = timer.Seconds();
    layers->Add("measures." + measure->name(), seconds);
    e.names.push_back(measure->name());
    e.values.push_back(value);
    e.at_deadline.push_back(measure->name() == "I_R" &&
                            seconds >= kRepairDeadlineSeconds);
  }
  return e;
}

Round RunRound(const std::vector<AuditDataset>& datasets,
               LayerTimes* layers) {
  Round round;
  Timer timer;
  for (const AuditDataset& dataset : datasets) {
    round.evaluations.push_back(layers != nullptr
                                    ? EvaluateTraced(dataset, layers)
                                    : EvaluateOne(dataset));
  }
  round.seconds = timer.Seconds();
  return round;
}

// Bit-identity of two rounds, ignoring values reported at a deadline.
bool SameValues(const Round& a, const Round& b, std::string* why) {
  for (size_t d = 0; d < a.evaluations.size(); ++d) {
    const Evaluation& x = a.evaluations[d];
    const Evaluation& y = b.evaluations[d];
    if (x.subsets != y.subsets || x.names != y.names) {
      *why = "dataset " + std::to_string(d) + ": |MI| or measures differ";
      return false;
    }
    for (size_t m = 0; m < x.values.size(); ++m) {
      if (x.at_deadline[m] || y.at_deadline[m]) continue;
      if (x.values[m] != y.values[m]) {
        *why = "dataset " + std::to_string(d) + ": " + x.names[m] + " differs";
        return false;
      }
    }
  }
  return true;
}

size_t DeadlineHits(const Round& round) {
  size_t hits = 0;
  for (const Evaluation& e : round.evaluations) {
    for (const bool hit : e.at_deadline) hits += hit;
  }
  return hits;
}

}  // namespace

void RunAudit(const Args& args, Outcome* out) {
  std::vector<double> datagen_seconds;
  auto generate = [&]() {
    datagen_seconds.push_back(0.0);
    return Generate(args.seed, &datagen_seconds.back());
  };
  // A traced run reports no setup_s, so it sets up before its timed phase.
  SpreadSetup setup(args.trace ? 0.0 : args.seconds, kSetupRuns);
  const std::vector<AuditDataset> datasets = setup.Rep(generate);
  setup.RepsDue(0.0, generate);
  size_t facts_per_round = 0;
  for (const AuditDataset& d : datasets) facts_per_round += d.db.size();

  // Untraced rounds: all of the run, or its first third when tracing (the
  // baseline trace_overhead_frac compares against).
  const double untraced_budget = args.trace ? args.seconds / 3 : args.seconds;
  // The first round warms caches and lazily grown buffers; it is the
  // reference every later round must repeat, but is not timed.
  Timer timer;
  const Round reference = RunRound(datasets, nullptr);
  std::vector<Round> rounds;
  do {
    setup.RepsDue(timer.Seconds(), generate);
    rounds.push_back(RunRound(datasets, nullptr));
  } while (timer.Seconds() < untraced_budget);
  setup.Finish(generate);
  double untraced_seconds = 0.0;  // rounds only, not the set-ups between
  for (const Round& r : rounds) untraced_seconds += r.seconds;

  LayerTimes layers;
  std::vector<Round> traced;
  while (args.trace && (traced.empty() || timer.Seconds() < args.seconds)) {
    traced.push_back(RunRound(datasets, &layers));
  }

  std::string why;
  for (const Round& r : rounds) {
    if (!SameValues(reference, r, &why)) {
      out->Fail("EvaluateOne not bit-identical across rounds: " + why);
      break;
    }
  }
  for (const Round& r : traced) {
    if (!SameValues(reference, r, &why)) {
      out->Fail("EvaluateOne differs from its traced decomposition: " + why);
      break;
    }
  }

  uint64_t checksum = 0;
  size_t subsets = 0;
  for (const Evaluation& e : reference.evaluations) {
    subsets += e.subsets;
    checksum = MixChecksum(checksum, static_cast<double>(e.subsets));
    for (size_t m = 0; m < e.values.size(); ++m) {
      if (!e.at_deadline[m]) checksum = MixChecksum(checksum, e.values[m]);
    }
  }

  const size_t calls = rounds.size() * datasets.size();
  out->attempted = calls;
  for (const Round& r : rounds) out->failed += DeadlineHits(r);

  std::vector<double> round_ms;
  for (const Round& r : rounds) round_ms.push_back(r.seconds * 1e3);

  if (!args.trace) {
    out->Set("setup_s", setup.MedianSeconds());
    out->Set("ops_per_s", static_cast<double>(calls) / untraced_seconds);
    out->Set("evaluate_p50_ms", Percentile(round_ms, 50));
    out->Set("evaluate_p90_ms", Percentile(round_ms, 90));
    out->Set("peak_rss_mb", PeakRssMb());
    out->Note("facts_per_s",
              static_cast<double>(facts_per_round * rounds.size()) /
                  untraced_seconds,
              "facts/s");
    out->Note("rounds", static_cast<double>(rounds.size()), "count");
    out->Note("failed_frac",
              static_cast<double>(out->failed) / static_cast<double>(calls),
              "ratio");
    out->Note("detector.subsets", static_cast<double>(subsets), "count");
    out->Note("measures.checksum", static_cast<double>(checksum), "count");
    return;
  }

  const double n = static_cast<double>(traced.size());
  std::vector<double> traced_ms;
  double traced_total = 0.0;
  for (const Round& r : traced) {
    traced_ms.push_back(r.seconds * 1e3);
    traced_total += r.seconds;
  }
  out->Set("datagen.s", Median(datagen_seconds));
  out->Set("detector.s", layers.Total("detector") / n);
  out->Set("detector.subsets", static_cast<double>(subsets));
  out->Set("conflict_graph.ms", layers.Total("conflict_graph") / n * 1e3);
  for (const auto& measure : datasets.front().session->measures()) {
    const std::string layer = "measures." + measure->name();
    out->Set(layer + ".ms", layers.Total(layer) / n * 1e3);
  }
  out->Set("measures.checksum", static_cast<double>(checksum));
  out->Set("unaccounted_frac", 1.0 - layers.TotalAll() / traced_total);
  out->Set("trace_overhead_frac",
           Median(traced_ms) / Median(round_ms) - 1.0);
}

}  // namespace perfbench
