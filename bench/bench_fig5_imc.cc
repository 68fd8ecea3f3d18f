// Reproduces Figure 5 of the paper: the behaviour of I_MC on 100-tuple
// samples (its #P-hardness rules out anything larger) over 100 iterations
// of CONoise (left chart) and RNoise (right chart). The paper observes the
// measure is the least stable of all; datasets whose counts explode hit the
// deadline and report "timeout", mirroring the paper's missing lines.
#include <cstdio>
#include <memory>

#include "bench_util.h"
#include "measures/mc_measures.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 5 — I_MC on 100-tuple samples",
              "Normalized I_MC under CONoise (left) and RNoise with\n"
              "alpha=0.01, beta=0 (right); 100 iterations, sampled every 5.");

  SessionOptions options = args.Options();
  options.registry.include_mc = true;
  options.registry.mc_deadline_seconds = args.full ? 60.0 : 5.0;
  options.registry.only = {"I_MC"};

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
          /*iterations=*/100, /*sample_every=*/5, run_rng);
      std::printf("--- %s / %s ---\n", mode, DatasetName(id));
      Emit(args,
           std::string("fig5_imc_") + mode + "_" + DatasetName(id),
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
