// Reproduces Table 3 of the paper: end-to-end running time (seconds) of
// each measure on every dataset after #tuples/1000 iterations of CONoise.
// I_MC is excluded (it exceeded the paper's 24-hour limit everywhere).
//
// Default sizes are the paper's divided by 20 so the whole suite stays
// minute-scale; pass --full for the paper's cardinalities. The shape to
// look for (Section 6.2.3): all measures are dominated by violation
// detection (the paper's SQL join), with I_R and I_lin_R slightly above
// the counting measures.
#include <cmath>
#include <cstdio>

#include "bench_util.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Table 3 — running times (seconds)",
              "Violation detection (`detect`, shared across all measures\n"
              "by MeasureSession::EvaluateOne — run once per dataset) plus\n"
              "per-measure evaluation time after #tuples/1000 CONoise\n"
              "iterations.\n"
              "Default scale: paper sizes / 100 (use --full).");

  SessionOptions options;
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 10.0;
  options.detector.num_threads = args.threads;
  options.parallel_measures = args.parallel_measures;

  struct DatasetRow {
    std::string name;
    size_t tuples;
    BatchReport report;
  };
  std::vector<DatasetRow> rows;
  Rng rng(args.seed);
  for (const DatasetId id : AllDatasets()) {
    const size_t n = args.SampleSize(PaperTupleCount(id) / 100,
                                     PaperTupleCount(id));
    Dataset dataset = MakeDataset(id, n, args.seed);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Rng run_rng = rng.Fork();
    Database db = dataset.data;
    const size_t iterations = std::max<size_t>(n / 1000, 1);
    for (size_t i = 0; i < iterations; ++i) noise.Step(db, run_rng);

    const MeasureSession session(dataset.schema, dataset.constraints, options);
    rows.push_back(
        DatasetRow{std::string(DatasetName(id)), n, session.EvaluateOne(db)});
  }

  // The header comes from the reports themselves so columns can never
  // drift from the session's measure selection.
  std::vector<std::string> header = {"dataset", "#tuples", "threads",
                                     "detect"};
  for (const MeasureResult& r : rows.front().report.measures) {
    header.push_back(r.name);
  }
  TablePrinter table(header);
  for (const DatasetRow& entry : rows) {
    std::vector<std::string> row = {
        entry.name, std::to_string(entry.tuples),
        std::to_string(args.threads),
        TablePrinter::Num(entry.report.detection_seconds, 3)};
    for (const MeasureResult& r : entry.report.measures) {
      row.push_back(TablePrinter::Num(r.seconds, 3));
    }
    table.AddRow(std::move(row));
  }
  Emit(args, "table3_runtimes", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
