// Reproduces Figure 9 (appendix) of the paper: RNoise trajectories under
// data skew — beta = 1 and beta = 2 Zipf replacement draws. The paper's
// finding: the curves are essentially the same as beta = 0 (Figure 4b),
// i.e. the measures are insensitive to skew.
//
// A closing thread-sweep table re-detects one beta = 2 dirty instance at
// each --thread-sweep count (default 1,2,4): Zipf-skewed blocking buckets
// are the adversary that serializes statically chunked parallel probes on
// the fattest bucket, so this is where the work-stealing scheduler has to
// earn its keep. Results are checked bit-identical across counts.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 9 — RNoise skew sweep (beta = 1, 2)",
              "Normalized measure trajectories under skewed replacement\n"
              "draws; compare with Figure 4b (beta = 0).");

  SessionOptions options = args.Options();
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 5.0;

  Rng rng(args.seed);
  for (const double beta : {1.0, 2.0}) {
    std::printf("=== beta = %.0f ===\n", beta);
    for (const DatasetId id : AllDatasets()) {
      const size_t n = args.SampleSize(800, 10000);
      const Dataset dataset = MakeDataset(id, n, args.seed);
      const RNoiseGenerator noise(dataset.data, dataset.constraints, beta);
      const size_t iterations =
          std::max<size_t>(noise.StepsForAlpha(dataset.data, 0.01), 20);
      Rng run_rng = rng.Fork();
      const auto result = RunTrajectory(
          dataset, options,
          [&](const Database& db, Rng& r, const CellUpdateFn& update) {
            noise.Step(db, r, update);
          },
          iterations, std::max<size_t>(iterations / 10, 1), run_rng);
      std::printf("--- beta=%.0f / %s (violation ratio %.5f%%) ---\n", beta,
                  DatasetName(id), 100.0 * result.final_violation_ratio);
      Emit(args,
           std::string("fig9_skew_beta") +
               std::to_string(static_cast<int>(beta)) + "_" +
               DatasetName(id),
           result.table);
    }
  }

  // Thread sweep over one maximally skewed (beta = 2) dirty instance.
  {
    const size_t n = args.SampleSize(800, 10000);
    Dataset dataset = MakeDataset(DatasetId::kHospital, n, args.seed);
    const RNoiseGenerator noise(dataset.data, dataset.constraints, 2.0);
    Rng noise_rng = rng.Fork();
    const CellUpdateFn update = [&](FactId id, AttrIndex attr, Value v) {
      dataset.data.UpdateValue(id, attr, std::move(v));
    };
    const size_t steps = std::max<size_t>(n / 20, 20);
    for (size_t s = 0; s < steps; ++s) {
      noise.Step(dataset.data, noise_rng, update);
    }

    std::vector<size_t> sweep = args.thread_sweep;
    if (sweep.empty()) sweep = {1, 2, 4};
    TablePrinter table({"threads", "detect (s)"});
    ViolationSet reference;
    for (size_t i = 0; i < sweep.size(); ++i) {
      DetectorOptions detector_options;
      detector_options.num_threads = sweep[i];
      const ViolationDetector detector(dataset.schema, dataset.constraints,
                                       detector_options);
      Timer timer;
      const ViolationSet violations = detector.FindViolations(dataset.data);
      const double seconds = timer.Seconds();
      if (i == 0) {
        reference = violations;
      } else if (!(violations == reference)) {
        std::fprintf(stderr,
                     "skew detect @ %zu threads diverges from %zu threads\n",
                     sweep[i], sweep[0]);
        return 1;
      }
      table.AddRow({std::to_string(sweep[i]), TablePrinter::Num(seconds, 3)});
    }
    Emit(args, "fig9_skew_threads", table);
  }
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
