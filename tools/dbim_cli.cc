// dbim — command-line inconsistency measurement for user data.
//
// Usage:
//   dbim_cli --spec=constraints.dcs --data=facts.csv
//            [--measures=I_d,I_MI,I_P,I_R,I_lin_R] [--mc] [--threads=N]
//            [--parallel-measures] [--stats] [--json] [--shapley=N]
//            [--repair] [--export=clean.csv]
//
// The spec file declares one relation and its denial constraints:
//
//   # comments and blank lines are ignored
//   relation Airport(Id, Type, Name, Continent, Country, Municipality)
//   !(t.Country = t'.Country & t.Continent != t'.Continent)
//   !(t.Municipality = t'.Municipality & t.Country != t'.Country)
//
// The data file is a CSV whose header matches the declared attributes
// (values may use the typed `i:`/`d:`/`s:` tags of datagen/io.h; untagged
// fields load as strings).
//
// Output: one line per requested measure; with --shapley=N the top-N
// facts by I_MI Shapley blame; with --repair an optimal deletion repair;
// with --export the repaired database is written back as CSV.
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "datagen/io.h"
#include "measures/repair_measures.h"
#include "measures/session.h"
#include "measures/shapley.h"
#include "service/spec.h"
#include "streaming/approx.h"
#include "streaming/stream_session.h"
#include "violations/detector.h"

namespace {

using namespace dbim;

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbim_cli --spec=constraints.dcs --data=facts.csv\n"
      "                [--measures=I_d,I_MI,...] [--mc] [--threads=N]\n"
      "                [--parallel-measures] [--stats] [--shapley=N]\n"
      "                [--repair] [--export=out.csv]\n"
      "                [--window=count:N|ticks:N] [--approx=EPS]\n"
      "  --stats      print per-constraint probe/fire counters from the\n"
      "               detection pass plus the incremental index's watched-\n"
      "               key footprint\n"
      "  --json       with --stats, emit the table as JSON (the same\n"
      "               TablePrinter::ToJson form dbimd's STATS verb uses)\n"
      "  --threads=N  detection worker threads (default 1, 0 = hardware);\n"
      "               results are identical for every thread count\n"
      "  --parallel-measures  evaluate the selected measures concurrently\n"
      "               on the shared context (same values, overlapped time)\n"
      "  --window=count:N|ticks:N  replay the CSV as a stream (row index =\n"
      "               logical tick) through a sliding window and report the\n"
      "               final window's measures plus slide counters\n"
      "  --approx=EPS sampling-based estimates with confidence intervals\n"
      "               instead of (in addition to) the exact measures\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string spec_path = FlagValue(argc, argv, "spec").value_or("");
  const std::string data_path = FlagValue(argc, argv, "data").value_or("");
  if (spec_path.empty() || data_path.empty()) return Usage();
  // A malformed flag value (e.g. --threads=abc) is a usage error, never a
  // silent 0.
  SessionOptions options;
  uint64_t shapley_top = 0;
  std::string flag_error;
  if (!SessionOptionsFromFlags(argc, argv, &options, &flag_error) ||
      !UintFlag(argc, argv, "shapley", 0,
                std::numeric_limits<uint64_t>::max(), &shapley_top,
                &flag_error)) {
    std::fprintf(stderr, "flag error: %s\n", flag_error.c_str());
    return 2;
  }
  options.WithRepairDeadline(30.0);

  ServiceSpec spec;
  std::string error;
  if (!LoadSpecFile(spec_path, &spec, &error)) {
    std::fprintf(stderr, "spec error: %s\n", error.c_str());
    return 1;
  }
  auto db = ReadDatabaseCsv(spec.schema, spec.relation, data_path, &error);
  if (!db) {
    std::fprintf(stderr, "data error: %s\n", error.c_str());
    return 1;
  }
  std::printf("%s: %zu facts, %zu constraints\n",
              spec.schema->relation(spec.relation).name().c_str(), db->size(),
              spec.constraints.size());

  // One session, one shared context: violation detection — the dominating
  // cost — runs once, and the measure loop, Shapley ranking, and repair
  // all reuse it.
  MeasureSession session(spec.schema, spec.constraints, options);
  // One-shot workload: evaluate the loaded database on its own pool (no
  // Register — the copy/re-intern/bucket build only pays off across
  // repeated evaluations). Detection runs lazily, exactly once, on the
  // shared context below.
  MeasureContext context(session.detector(), *db);
  std::printf("minimal inconsistent subsets: %zu (violating-pair ratio "
              "%.5f%%)\n",
              context.violations().num_minimal_subsets(),
              100.0 * context.violations().ViolatingPairRatio(db->size()));

  for (const MeasureResult& result : session.Evaluate(context)) {
    std::printf("  %-8s = %g\n", result.name.c_str(), result.value);
  }

  if (options.approx.enabled()) {
    ApproxOptions approx;
    approx.eps = options.approx.eps;
    approx.confidence = options.approx.confidence;
    approx.seed = options.approx.seed;
    approx.only = options.registry.only;
    const ApproxEvaluator evaluator(session.detector(), std::move(approx));
    const ApproxReport report = evaluator.Evaluate(*db);
    std::printf("approximate measures (sample %zu of %zu, fraction %.3f):\n",
                report.sample_size, report.num_facts,
                report.num_facts == 0
                    ? 1.0
                    : static_cast<double>(report.sample_size) /
                          report.num_facts);
    for (const ApproxEstimate& e : report.estimates) {
      std::printf("  %-8s ~ %-10g  [%g, %g]%s\n", e.name.c_str(), e.estimate,
                  e.ci_low, e.ci_high,
                  e.sample_fraction >= 1.0 ? "  (exact)" : "");
    }
  }

  if (options.window.enabled()) {
    // Replay the CSV as a stream: row index = logical tick. Every slide
    // routes through the incremental session index, so the final window's
    // measures come out without any re-detection.
    StreamSession stream(&session, options.window);
    uint64_t tick = 0;
    db->ForEachId([&](FactId id) { stream.Push(db->fact(id), tick++); });
    std::printf("window replay: %zu live facts, %zu slides, %zu expired "
                "(ticks 0..%llu)\n",
                stream.num_live(), stream.num_slides(), stream.num_expired(),
                static_cast<unsigned long long>(stream.current_tick()));
    for (const MeasureResult& result : stream.Evaluate().measures) {
      std::printf("  %-8s = %g\n", result.name.c_str(), result.value);
    }
  }

  if (HasFlag(argc, argv, "stats")) {
    // Registering builds the incremental index, whose watched-key state
    // gives the per-constraint watcher footprint; probes/fires come from
    // the uncached detection pass that just ran on the shared detector.
    const DbHandle handle = session.Register(*db);
    const std::vector<SessionConstraintStats> stats =
        session.ConstraintStats(handle);
    TablePrinter table({"constraint", "probes", "fires", "watchers"});
    for (size_t c = 0; c < stats.size(); ++c) {
      const DetectorConstraintStats pass =
          session.detector().constraint_stats(c);
      table.AddRow({stats[c].constraint, std::to_string(pass.num_probes),
                    std::to_string(pass.num_fires),
                    std::to_string(stats[c].watcher_count)});
    }
    if (HasFlag(argc, argv, "json")) {
      std::printf("%s\n", table.ToJson("constraint_stats").c_str());
    } else {
      std::printf("per-constraint stats:\n%s", table.ToText().c_str());
    }
    session.Unregister(handle);
  }

  if (FlagValue(argc, argv, "shapley")) {
    const size_t top = shapley_top;
    auto shares = ShapleyMiValues(context);
    std::sort(shares.begin(), shares.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    std::printf("top %zu facts by I_MI Shapley blame:\n", top);
    for (size_t i = 0; i < std::min(top, shares.size()); ++i) {
      if (shares[i].second <= 0.0) break;
      std::printf("  #%-6u blame %-8g %s\n", shares[i].first,
                  shares[i].second,
                  db->fact(shares[i].first).ToString(*spec.schema).c_str());
    }
  }

  const std::string export_path =
      FlagValue(argc, argv, "export").value_or("");
  if (HasFlag(argc, argv, "repair") || !export_path.empty()) {
    MinRepairMeasure repair;
    const std::vector<FactId> to_delete = repair.OptimalRepair(context);
    std::printf("optimal deletion repair: %zu facts\n", to_delete.size());
    for (const FactId id : to_delete) {
      std::printf("  delete #%u %s\n", id,
                  db->fact(id).ToString(*spec.schema).c_str());
    }
    if (!export_path.empty()) {
      Database repaired = *db;
      for (const FactId id : to_delete) repaired.Delete(id);
      if (!WriteDatabaseCsv(repaired, spec.relation, export_path)) {
        std::fprintf(stderr, "cannot write %s\n", export_path.c_str());
        return 1;
      }
      std::printf("wrote repaired database to %s\n", export_path.c_str());
    }
  }
  return 0;
}
