// Reproduces Figure 4a of the paper: normalized trajectories of I_d, I_MI,
// I_P, I_R and I_lin_R over 200 iterations of CONoise on a sample of each
// dataset (the paper samples 10K tuples; the default here is 1K — pass
// --full for the paper scale). The violation ratio reported above each of
// the paper's charts is printed per dataset.
#include <cstdio>

#include "bench_util.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 4a — measure behaviour under CONoise",
              "Normalized measure values every 10 of 200 CONoise\n"
              "iterations per dataset (I_MC excluded, as in the paper).");

  SessionOptions options = args.Options();
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 5.0;

  Rng rng(args.seed);
  for (const DatasetId id : AllDatasets()) {
    const size_t n = args.SampleSize(1000, 10000);
    const Dataset dataset = MakeDataset(id, n, args.seed);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Rng run_rng = rng.Fork();
    const auto result = RunTrajectory(
        dataset, options,
        [&](const Database& db, Rng& r, const CellUpdateFn& update) {
          noise.Step(db, r, update);
        },
        /*iterations=*/200, /*sample_every=*/10, run_rng);
    std::printf("--- %s (n=%zu, final violation ratio %.5f%%) ---\n",
                DatasetName(id), n, 100.0 * result.final_violation_ratio);
    Emit(args, std::string("fig4a_conoise_") + DatasetName(id),
         result.table);
  }
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
