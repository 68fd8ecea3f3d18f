// Reproduces Figure 4b of the paper: normalized measure trajectories under
// RNoise with alpha = 0.01 (modify 1% of the dataset's values) and beta = 0
// (uniform replacement draws), sampling the measures every ~tenth of the
// run, per dataset.
#include <cstdio>

#include "bench_util.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 4b — measure behaviour under RNoise (alpha=0.01, "
              "beta=0)",
              "Normalized measure values while 1% of all cell values are\n"
              "randomized (I_MC excluded, as in the paper).");

  SessionOptions options = args.Options();
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 5.0;

  Rng rng(args.seed);
  for (const DatasetId id : AllDatasets()) {
    const size_t n = args.SampleSize(1000, 10000);
    const Dataset dataset = MakeDataset(id, n, args.seed);
    const RNoiseGenerator noise(dataset.data, dataset.constraints,
                                /*beta=*/0.0);
    const size_t iterations =
        std::max<size_t>(noise.StepsForAlpha(dataset.data, 0.01), 20);
    Rng run_rng = rng.Fork();
    const auto result = RunTrajectory(
        dataset, options,
        [&](const Database& db, Rng& r, const CellUpdateFn& update) {
          noise.Step(db, r, update);
        },
        iterations, std::max<size_t>(iterations / 20, 1), run_rng);
    std::printf("--- %s (n=%zu, %zu iterations, final violation ratio "
                "%.5f%%) ---\n",
                DatasetName(id), n, iterations,
                100.0 * result.final_violation_ratio);
    Emit(args, std::string("fig4b_rnoise_") + DatasetName(id), result.table);
  }
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
