// Reproduces Figure 8 (appendix) of the paper: ALL measures, including
// I_MC and I'_MC, on 100-tuple samples under both noise models. This is
// the only trajectory chart where counting maximal consistent subsets is
// feasible at all; datasets whose counts still explode report "timeout",
// matching the paper's missing I_MC lines.
#include <cstdio>

#include "bench_util.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 8 — all measures on 100-tuple samples",
              "Normalized trajectories under CONoise and RNoise\n"
              "(alpha=0.01, beta=0), I_MC and I'_MC included.");

  SessionOptions options = args.Options();
  options.registry.include_mc = true;
  options.registry.mc_deadline_seconds = args.full ? 60.0 : 3.0;

  Rng rng(args.seed);
  for (const char* mode : {"CONoise", "RNoise"}) {
    std::printf("=== %s ===\n", mode);
    for (const DatasetId id : AllDatasets()) {
      const Dataset dataset = MakeDataset(id, 100, args.seed);
      const CoNoiseGenerator co(dataset.data, dataset.constraints);
      const RNoiseGenerator rn(dataset.data, dataset.constraints, 0.0);
      const bool use_co = std::string(mode) == "CONoise";
      Rng run_rng = rng.Fork();
      const auto result = RunTrajectory(
          dataset, options,
          [&](const Database& db, Rng& r, const CellUpdateFn& update) {
            if (use_co) {
              co.Step(db, r, update);
            } else {
              rn.Step(db, r, update);
            }
          },
          /*iterations=*/100, /*sample_every=*/10, run_rng);
      std::printf("--- %s / %s (final violation ratio %.4f%%) ---\n", mode,
                  DatasetName(id), 100.0 * result.final_violation_ratio);
      Emit(args,
           std::string("fig8_small_") + mode + "_" + DatasetName(id),
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
