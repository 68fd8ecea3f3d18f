// Reproduces Figure 6a of the paper: scalability in |D| on the Tax dataset
// — running time of each measure on samples of growing size. The paper
// sweeps 100K..1M and observes a quadratic trend driven by the violation
// query; the default here sweeps 1K..8K (use --full for 100K..1M).
#include <cstdio>

#include "bench_util.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Figure 6a — scalability in |D| on Tax",
              "Per-measure runtime (seconds) vs sample size; the `detect`\n"
              "column is the shared violation query (run once per size by\n"
              "MeasureSession::EvaluateOne), whose near-quadratic growth\n"
              "dominates.");

  SessionOptions options;
  options.registry.include_mc = false;
  // I_R's branch & bound gets expensive on dense high-error conflict
  // graphs; past the deadline it reports its incumbent (an upper bound).
  options.registry.repair_deadline_seconds = 30.0;
  options.detector.num_threads = args.threads;
  options.parallel_measures = args.parallel_measures;

  std::vector<size_t> sizes;
  if (args.full) {
    sizes = {100000, 250000, 500000, 750000, 1000000};
  } else {
    sizes = {1000, 2000, 4000, 6000, 8000};
  }

  std::vector<BatchReport> reports;
  Rng rng(args.seed);
  for (const size_t n : sizes) {
    Dataset dataset = MakeDataset(DatasetId::kTax, n, args.seed);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng run_rng = rng.Fork();
    for (size_t i = 0; i < std::max<size_t>(n / 1000, 1); ++i) {
      noise.Step(db, run_rng);
    }
    const MeasureSession session(dataset.schema, dataset.constraints, options);
    reports.push_back(session.EvaluateOne(db));
  }

  // The header comes from the reports themselves so columns can never
  // drift from the session's measure selection.
  std::vector<std::string> header = {"#tuples", "threads", "detect"};
  for (const MeasureResult& r : reports.front().measures) {
    header.push_back(r.name);
  }
  TablePrinter table(header);
  for (size_t s = 0; s < sizes.size(); ++s) {
    std::vector<std::string> row = {
        std::to_string(sizes[s]), std::to_string(args.threads),
        TablePrinter::Num(reports[s].detection_seconds, 3)};
    for (const MeasureResult& r : reports[s].measures) {
      row.push_back(TablePrinter::Num(r.seconds, 3));
    }
    table.AddRow(std::move(row));
  }
  Emit(args, "fig6a_scalability", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
