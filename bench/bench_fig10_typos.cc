// Reproduces Figure 10 (appendix) of the paper: sensitivity to the error
// *type* mix. RNoise at beta = 1 with typo probability 0.2 (mostly active-
// domain swaps) vs 0.8 (mostly typos). The paper finds the trajectories
// barely change.
#include <cstdio>

#include "bench_util.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 10 — typo-probability sweep (beta = 1)",
              "Normalized trajectories with typo probability 0.2 vs 0.8.");

  SessionOptions options = args.Options();
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 5.0;

  Rng rng(args.seed);
  for (const double typo_probability : {0.2, 0.8}) {
    std::printf("=== typo probability = %.1f ===\n", typo_probability);
    for (const DatasetId id : AllDatasets()) {
      const size_t n = args.SampleSize(800, 10000);
      const Dataset dataset = MakeDataset(id, n, args.seed);
      const RNoiseGenerator noise(dataset.data, dataset.constraints,
                                  /*beta=*/1.0, typo_probability);
      const size_t iterations =
          std::max<size_t>(noise.StepsForAlpha(dataset.data, 0.01), 20);
      Rng run_rng = rng.Fork();
      const auto result = RunTrajectory(
          dataset, options,
          [&](const Database& db, Rng& r, const CellUpdateFn& update) {
            noise.Step(db, r, update);
          },
          iterations, std::max<size_t>(iterations / 10, 1), run_rng);
      std::printf("--- typo=%.1f / %s (violation ratio %.5f%%) ---\n",
                  typo_probability, DatasetName(id),
                  100.0 * result.final_violation_ratio);
      Emit(args,
           std::string("fig10_typo") +
               std::to_string(static_cast<int>(typo_probability * 10)) +
               "_" + DatasetName(id),
           result.table);
    }
  }
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
