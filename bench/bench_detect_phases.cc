// Detection split into its two phases (not a paper figure): on the eight
// Table-3 datasets as the repository benchmark's `audit` workload generates
// them (paper size / 100 times --scale, dirtied by n/1000 CONoise steps,
// datasets seeded from --seed), the median of 61 rounds of
//
//   build — WitnessIndex::Build, the bucket groups and their partner
//           indexes (`!=` class splits, order runs), and
//   find  — ViolationDetector::FindWitnesses probing that index,
//
// at 1 and at 2 threads, per dataset and summed in a last row. The count
// columns describe the index one build produces and are a pure function
// of --seed and --scale: bucket keys over every group, the buckets among
// them that hold one fact, the members of every `!=` class split and the
// entries of every order run. CI gates them exactly
// (check_bench_regression.py --exact); the timing columns are reported
// only. Every round's witness count is checked against the first one's.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "violations/witness_index.h"

namespace dbim::bench {
namespace {

constexpr int kRounds = 61;

struct Phases {
  double build_ms = 0.0;
  double find_ms = 0.0;
};

// Medians of kRounds builds and probes of a fresh index over `db`, both at
// `threads` threads.
Phases Measure(const Dataset& dataset, const Database& db, size_t threads,
               size_t expected_subsets) {
  DetectorOptions options;
  options.num_threads = threads;
  const ViolationDetector detector(dataset.schema, dataset.constraints,
                                   options);
  std::vector<double> build;
  std::vector<double> find;
  for (int round = 0; round < kRounds; ++round) {
    WitnessIndex index(detector.constraints(),
                       detector.schema().num_relations());
    Timer timer;
    index.Build(db, threads);
    build.push_back(timer.Seconds() * 1e3);
    timer.Reset();
    const WitnessStore store = detector.FindWitnesses(db, index);
    find.push_back(timer.Seconds() * 1e3);
    if (store.num_live() != expected_subsets) {
      std::fprintf(stderr, "round %d found %zu subsets, not %zu\n", round,
                   store.num_live(), expected_subsets);
      std::exit(1);
    }
  }
  std::sort(build.begin(), build.end());
  std::sort(find.begin(), find.end());
  return Phases{build[kRounds / 2], find[kRounds / 2]};
}

int Run(const BenchArgs& args) {
  PrintHeader("Detection phases",
              "WitnessIndex::Build vs FindWitnesses on the audit datasets "
              "(median of 61 rounds, ms)");
  TablePrinter table({"dataset", "n", "bucket keys", "one-fact buckets",
                      "split members", "order entries", "build 1t (ms)",
                      "find 1t (ms)", "build 2t (ms)", "find 2t (ms)"});
  Rng rng(args.seed);
  Phases total[2];
  WitnessIndex::Counts total_counts;
  for (const DatasetId id : AllDatasets()) {
    const size_t n = std::max<size_t>(
        static_cast<size_t>(static_cast<double>(PaperTupleCount(id)) / 100 *
                            args.scale),
        1);
    const Dataset dataset = MakeDataset(id, n, args.seed);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Rng noise_rng = rng.Fork();
    Database db = dataset.data;
    for (size_t i = 0; i < std::max<size_t>(n / 1000, 1); ++i) {
      noise.Step(db, noise_rng);
    }
    const ViolationDetector detector(dataset.schema, dataset.constraints);
    WitnessIndex index(dataset.constraints, dataset.schema->num_relations());
    index.Build(db, 1);
    const WitnessIndex::Counts counts = index.counts();
    total_counts.bucket_keys += counts.bucket_keys;
    total_counts.one_fact_buckets += counts.one_fact_buckets;
    total_counts.split_members += counts.split_members;
    total_counts.order_entries += counts.order_entries;
    const size_t subsets = detector.FindWitnesses(db, index).num_live();
    const Phases one = Measure(dataset, db, 1, subsets);
    const Phases two = Measure(dataset, db, 2, subsets);
    for (int t = 0; t < 2; ++t) {
      total[t].build_ms += (t == 0 ? one : two).build_ms;
      total[t].find_ms += (t == 0 ? one : two).find_ms;
    }
    table.AddRow({DatasetName(id), std::to_string(db.size()),
                  std::to_string(counts.bucket_keys),
                  std::to_string(counts.one_fact_buckets),
                  std::to_string(counts.split_members),
                  std::to_string(counts.order_entries),
                  TablePrinter::Num(one.build_ms, 2),
                  TablePrinter::Num(one.find_ms, 2),
                  TablePrinter::Num(two.build_ms, 2),
                  TablePrinter::Num(two.find_ms, 2)});
  }
  table.AddRow({"total", "", std::to_string(total_counts.bucket_keys),
                std::to_string(total_counts.one_fact_buckets),
                std::to_string(total_counts.split_members),
                std::to_string(total_counts.order_entries),
                TablePrinter::Num(total[0].build_ms, 2),
                TablePrinter::Num(total[0].find_ms, 2),
                TablePrinter::Num(total[1].build_ms, 2),
                TablePrinter::Num(total[1].find_ms, 2)});
  Emit(args, "detect_phases", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
