// Ablation (not a paper figure): incremental violation maintenance vs
// from-scratch detection in a progress-indication loop. The paper's use
// case re-evaluates the measure after every repairing operation; the
// incremental index turns each step from a full O(n^2) join (binary
// Sigma) or O(n^k) enumeration (k-ary Sigma) into a probe of the changed
// fact — blocking buckets for binary constraints, whose partner indexes
// (a `!=` class split or dynamic order runs) let a probe cost its
// partners rather than its bucket, anchored witness re-enumeration for
// k-ary ones, both on the shared eval kernel. This
// bench repairs noisy instances fact by fact and times both strategies
// end to end; the CI gate (check_bench_regression.py --self) asserts the
// incremental column never exceeds the from-scratch column.
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "constraints/predicate.h"
#include "violations/incremental.h"

namespace dbim::bench {
namespace {

// Runs one repair loop twice — full re-detection per step vs incremental
// maintenance — and appends a row. Returns false on a step-count mismatch
// (the two strategies must walk the same trajectory).
bool RunRow(TablePrinter& table, const char* label, size_t n,
            std::shared_ptr<const Schema> schema,
            const std::vector<DenialConstraint>& dcs, const Database& noisy) {
  const ViolationDetector detector(schema, dcs);

  // Strategy A: full re-detection per step.
  size_t steps_a = 0;
  Timer scratch_timer;
  {
    Database db = noisy;
    while (true) {
      const ViolationSet violations = detector.FindViolations(db);
      if (violations.empty()) break;
      db.Delete(violations.ProblematicFacts().front());
      ++steps_a;
    }
  }
  const double scratch_seconds = scratch_timer.Seconds();

  // Strategy B: incremental index.
  size_t steps_b = 0;
  Timer incremental_timer;
  {
    IncrementalViolationIndex index(schema, dcs, noisy);
    while (!index.IsConsistent()) {
      const ViolationSet snapshot = index.Snapshot();
      index.Apply(
          RepairOperation::Deletion(snapshot.ProblematicFacts().front()));
      ++steps_b;
    }
  }
  const double incremental_seconds = incremental_timer.Seconds();

  if (steps_a != steps_b) {
    std::fprintf(stderr, "step-count mismatch on %s (%zu vs %zu)\n", label,
                 steps_a, steps_b);
    return false;
  }
  table.AddRow({label, std::to_string(n), std::to_string(steps_a),
                TablePrinter::Num(scratch_seconds, 3),
                TablePrinter::Num(incremental_seconds, 3),
                TablePrinter::Num(incremental_seconds > 0
                                      ? scratch_seconds / incremental_seconds
                                      : 0.0,
                                  1)});
  return true;
}

// A synthetic k-ary-Sigma instance over R(A, B, C): the 3-ary chain
// !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C), with values drawn from a
// small domain so the chain actually fires. Pre-kernel the session had no
// incremental story for this shape at all (every Apply re-detected).
Database MakeKAryInstance(std::shared_ptr<const Schema> schema, size_t n,
                          int64_t domain, uint64_t seed) {
  Database db(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    db.Insert(Fact(0, {Value(rng.UniformInt(0, domain - 1)),
                       Value(rng.UniformInt(0, domain - 1)),
                       Value(rng.UniformInt(0, domain - 1))}));
  }
  return db;
}

int Run(const BenchArgs& args) {
  PrintHeader("Ablation — incremental vs from-scratch violation tracking",
              "Total seconds to drive I_MI readings through a full repair\n"
              "loop (one deletion per step until consistent). Binary Sigma\n"
              "rows use the paper datasets; kary-chain rows a 3-ary DC.");

  TablePrinter table({"dataset", "#tuples", "repair steps", "scratch (s)",
                      "incremental (s)", "speedup"});
  Rng rng(args.seed);
  for (const DatasetId id : AllDatasets()) {
    const size_t n = args.SampleSize(600, 10000);
    const Dataset dataset = MakeDataset(id, n, args.seed);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database noisy = dataset.data;
    Rng run_rng = rng.Fork();
    for (int i = 0; i < 15; ++i) noise.Step(noisy, run_rng);
    if (!RunRow(table, DatasetName(id), n, dataset.schema,
                dataset.constraints, noisy)) {
      return 1;
    }
  }

  // K-ary trajectory rows: full re-detection pays the whole O(n^3)
  // enumeration per repair step, the index only the anchored slice through
  // the deleted fact's neighborhood.
  {
    auto schema = std::make_shared<Schema>();
    schema->AddRelation("R", {"A", "B", "C"});
    std::vector<Predicate> preds;
    preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
    preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
    preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
    std::vector<DenialConstraint> dcs;
    dcs.emplace_back(std::vector<RelationId>(3, 0), std::move(preds));
    for (const size_t base : {80u, 140u}) {
      const size_t n = args.SampleSize(base, base * 4);
      const Database noisy = MakeKAryInstance(schema, n, 10, args.seed + base);
      const std::string label = "kary-chain-" + std::to_string(base);
      if (!RunRow(table, label.c_str(), n, schema, dcs, noisy)) return 1;
    }
  }

  Emit(args, "ablation_incremental", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
