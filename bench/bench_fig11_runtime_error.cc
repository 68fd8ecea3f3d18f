// Reproduces Figure 11 (appendix) of the paper: per-measure running time
// as the error rate grows, for every dataset (10K samples in the paper;
// reduced by default). The paper's finding: I_MI / I_P runtimes barely
// move with the error rate while I_R grows the most, except on datasets
// whose violation counts stay tiny (Stock, Food).
//
// Each dataset's trajectory runs on a MeasureSession: violation state is
// maintained incrementally across noise steps, so the "detect (s)" column
// is the cost of snapshotting the maintained MI set, not a re-detection —
// the per-measure columns isolate each measure's own evaluation cost, the
// quantity Figure 11 is about.
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 11 — runtime vs error rate, all datasets",
              "Seconds per measure evaluation as RNoise (alpha=0.01,\n"
              "beta=0) raises the error rate.");

  SessionOptions options = args.Options();
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 3.0;

  Rng rng(args.seed);
  for (const DatasetId id : AllDatasets()) {
    const size_t n = args.SampleSize(1000, 10000);
    Dataset dataset = MakeDataset(id, n, args.seed);
    const RNoiseGenerator noise(dataset.data, dataset.constraints, 0.0);
    const size_t iterations =
        std::max<size_t>(noise.StepsForAlpha(dataset.data, 0.01), 10);
    const size_t step = std::max<size_t>(iterations / 10, 1);

    options.WithAutoVacuum(0.5);
    MeasureSession session(dataset.schema, dataset.constraints,
                           options);
    const DbHandle handle = session.Register(dataset.data);
    const CellUpdateFn update = [&](FactId fid, AttrIndex attr, Value v) {
      session.Apply(handle, RepairOperation::Update(fid, attr, std::move(v)));
    };

    std::vector<std::string> header = {"iteration", "detect (s)"};
    for (const auto& m : session.measures()) header.push_back(m->name());
    TablePrinter table(header);

    Rng run_rng = rng.Fork();
    for (size_t iteration = 1; iteration <= iterations; ++iteration) {
      noise.Step(session.db(handle), run_rng, update);
      if (iteration % step != 0 && iteration != iterations) continue;
      const BatchReport report = session.Evaluate(handle);
      std::vector<std::string> row = {std::to_string(iteration),
                                      TablePrinter::Num(
                                          report.detection_seconds, 4)};
      for (const MeasureResult& m : report.measures) {
        row.push_back(TablePrinter::Num(m.seconds, 4));
      }
      table.AddRow(std::move(row));
    }
    std::printf("--- %s (n=%zu) ---\n", DatasetName(id), n);
    Emit(args, std::string("fig11_runtime_") + DatasetName(id), table);
  }
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
