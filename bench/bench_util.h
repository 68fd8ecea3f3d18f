#ifndef DBIM_BENCH_BENCH_UTIL_H_
#define DBIM_BENCH_BENCH_UTIL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/table_printer.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/measure.h"
#include "measures/registry.h"
#include "measures/session.h"
#include "violations/detector.h"

namespace dbim::bench {

/// Common command-line arguments shared by every harness binary.
///
///   --full          paper-scale sizes (default: reduced for minute-scale
///                   total runtime; each bench documents both scales)
///   --scale=X       multiply default sizes by X
///   --csv           also write the series as CSV under --out
///   --out=DIR       CSV directory (default bench/out relative to cwd)
///   --seed=N        RNG seed (default 42)
///   --threads=N     detector worker threads (default 1; 0 = hardware)
///   --parallel-measures  evaluate registry measures concurrently on the
///                   shared context (same values, overlapped wall time)
///   --json=PATH     also write the table as JSON to PATH (the machine-
///                   readable record the CI bench-regression gate diffs)
///   --thread-sweep=1,2,4  thread counts for benches that sweep the
///                   scheduler (bench_scaling, bench_fig9_skew)
///   --skip-scratch  skip from-scratch re-detection replays (needed to
///                   reach the 1M+-tuple regime in bench_churn_throughput,
///                   where full re-detection per op is infeasible)
struct BenchArgs {
  bool full = false;
  double scale = 1.0;
  bool csv = false;
  std::string out_dir = "bench_out";
  uint64_t seed = 42;
  size_t threads = 1;
  bool parallel_measures = false;
  std::string json_out;
  std::vector<size_t> thread_sweep;
  bool skip_scratch = false;

  static BenchArgs Parse(int argc, char** argv);

  /// Scaled sample size: `base` by default, the paper's size under --full.
  size_t SampleSize(size_t base, size_t paper) const;

  /// Session options carrying this run's --threads / --parallel-measures.
  SessionOptions Options() const;
};

/// Prints a section header for a table/figure reproduction.
void PrintHeader(const std::string& experiment, const std::string& about);

/// Writes the table as CSV when requested; prints the text rendering
/// unconditionally.
void Emit(const BenchArgs& args, const std::string& name,
          const TablePrinter& table);

/// One step of a noise process: reads the session's live database view and
/// writes every cell mutation through `update` (a MeasureSession::Apply
/// adapter), so violation state is maintained incrementally across steps.
using NoiseStep =
    std::function<void(const Database&, Rng&, const CellUpdateFn&)>;

/// Runs a measure-trajectory experiment in the style of Figures 4/5/8/9/10
/// on a MeasureSession: registers the dataset once, applies `iterations`
/// noise steps through the session (auto-vacuum enabled — value churn
/// compacts), evaluates the selected measures each `sample_every` steps,
/// and returns one row per sample point with raw values normalized to each
/// measure's maximum (the paper plots normalized series).
struct TrajectoryResult {
  TablePrinter table;
  double final_violation_ratio = 0.0;
};
TrajectoryResult RunTrajectory(const Dataset& dataset,
                               SessionOptions options,
                               const NoiseStep& step, size_t iterations,
                               size_t sample_every, Rng& rng);

}  // namespace dbim::bench

#endif  // DBIM_BENCH_BENCH_UTIL_H_
