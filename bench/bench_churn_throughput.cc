// Churn throughput (not a paper figure): sustained ops/sec of incremental
// violation maintenance under a high-churn mutation stream, for two
// strategies over the *same* recorded operation trace:
//
//   watched    — IncrementalViolationIndex (watched-key dispatch and
//                output-sensitive partner indexes for binary constraints,
//                anchored-probe pruning for k-ary),
//   scratch    — full ViolationDetector::FindViolations after every op.
//
// `candidates` and `fires` sum the index's per-constraint counters
// (IncrementalViolationIndex::ConstraintStatsFor) over the replay: the
// partners its probes examined and the witnesses they derived. Both are a
// pure function of --seed and --scale. A binary probe yields only the
// partners its constraint's indexed predicates admit — a `!=` class split
// (the FDs) or a dynamic dominance query (order-keyed: Tax's salary/rate
// shape; order-keyless: an FD written with two order predicates and no
// equality key, so the whole relation is one bucket) — so candidates stay
// close to fires instead of growing with the bucket.
//
// The trace is generated once (deterministic in --seed) and replayed
// verbatim per strategy, so both walk identical databases and must end on
// identical violation state — the row fails hard otherwise. The index's
// final state is also checked against one fresh detection of its final
// database, so rows run with --skip-scratch stay checked.
//
// The CI gate (check_bench_regression.py --self) asserts "watched (s)"
// never exceeds "scratch (s)" beyond timer noise on the workloads the
// index was built for: wide Sigma where each op's key classes overlap few
// constraints (fd-mesh), order constraints with and without a key
// (order-keyed, order-keyless), and k-ary Sigma where the anchored probe
// can prune through partner buckets (kary-chain, mixed). CI also gates the
// candidates column exactly per row at --scale=0.5.
//
// Large-scale regime: `--scale=1000 --skip-scratch` pushes the fd-mesh
// row to 1M tuples / 400k ops. --skip-scratch is required there — a full
// re-detection per op over 1M tuples is infeasible — and the k-ary rows
// clamp their instance size (dense domain-8 buckets make anchored
// enumeration quadratic in bucket population), so the big regime
// exercises the wide-Sigma row. CI keeps --scale=0.5.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "constraints/predicate.h"
#include "relational/operations.h"
#include "violations/incremental.h"

namespace dbim::bench {
namespace {

// Draws the value for attribute `attr` of a fresh fact or update.
using DrawValue = std::function<Value(AttrIndex attr, Rng& rng)>;

// Records a deterministic churn trace against a simulation copy of
// `initial`: ~30% deletions (down to half the initial size), ~30%
// insertions, ~40% single-attribute updates. Fact ids assigned during
// replay match the simulation's because Database::Insert allocates ids
// deterministically from the same history.
std::vector<RepairOperation> MakeTrace(const Database& initial,
                                       size_t num_ops, uint64_t seed,
                                       size_t num_attrs,
                                       const DrawValue& draw) {
  Database sim = initial;
  std::vector<FactId> live;
  sim.ForEachId([&](FactId id) { live.push_back(id); });
  const size_t floor = live.size() / 2;
  Rng rng(seed);
  std::vector<RepairOperation> ops;
  ops.reserve(num_ops);
  for (size_t k = 0; k < num_ops; ++k) {
    const int64_t roll = rng.UniformInt(0, 9);
    if (roll < 3 && live.size() > floor) {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const FactId id = live[pick];
      live[pick] = live.back();
      live.pop_back();
      sim.Delete(id);
      ops.push_back(RepairOperation::Deletion(id));
    } else if (roll < 6 || live.empty()) {
      std::vector<Value> values;
      values.reserve(num_attrs);
      for (size_t a = 0; a < num_attrs; ++a) {
        values.push_back(draw(static_cast<AttrIndex>(a), rng));
      }
      Fact fact(0, std::move(values));
      live.push_back(sim.Insert(fact));
      ops.push_back(RepairOperation::Insertion(std::move(fact)));
    } else {
      const size_t pick =
          static_cast<size_t>(rng.UniformInt(0, live.size() - 1));
      const AttrIndex attr = static_cast<AttrIndex>(
          rng.UniformInt(0, static_cast<int64_t>(num_attrs) - 1));
      Value value = draw(attr, rng);
      sim.UpdateValue(live[pick], attr, value);
      ops.push_back(
          RepairOperation::Update(live[pick], attr, std::move(value)));
    }
  }
  return ops;
}

// The index's per-constraint work over one replay, summed over Sigma.
struct ReplayCounts {
  uint64_t candidates = 0;
  uint64_t fires = 0;
};

// Replays the trace through an IncrementalViolationIndex; construction is
// outside the timer — the bench measures steady-state churn, not build.
// `*fresh` receives one full detection of the final database.
double ReplayIndex(std::shared_ptr<const Schema> schema,
                   const std::vector<DenialConstraint>& dcs,
                   const Database& initial,
                   const std::vector<RepairOperation>& ops,
                   ViolationSet* final, ViolationSet* fresh,
                   ReplayCounts* counts) {
  IncrementalViolationIndex index(schema, dcs, initial);
  Timer timer;
  for (const RepairOperation& op : ops) index.Apply(op);
  const double seconds = timer.Seconds();
  for (size_t c = 0; c < dcs.size(); ++c) {
    const IncrementalConstraintStats stats = index.ConstraintStatsFor(c);
    counts->candidates += stats.num_probes;
    counts->fires += stats.num_fires;
  }
  *final = index.Snapshot();
  *fresh = ViolationDetector(std::move(schema), dcs).FindViolations(index.db());
  return seconds;
}

// Replays the trace with a full re-detection after every op.
double ReplayScratch(const ViolationDetector& detector,
                     const Database& initial,
                     const std::vector<RepairOperation>& ops,
                     ViolationSet* final) {
  Database db = initial;
  Timer timer;
  for (const RepairOperation& op : ops) {
    op.ApplyInPlace(db);
    *final = detector.FindViolations(db);
  }
  return timer.Seconds();
}

std::vector<std::vector<FactId>> Sorted(const ViolationSet& v) {
  std::vector<std::vector<FactId>> subsets = v.minimal_subsets();
  std::sort(subsets.begin(), subsets.end());
  return subsets;
}

bool RunRow(TablePrinter& table, const char* label, size_t n,
            std::shared_ptr<const Schema> schema,
            const std::vector<DenialConstraint>& dcs, const Database& initial,
            size_t num_ops, size_t num_attrs, const DrawValue& draw,
            uint64_t seed, bool skip_scratch) {
  const std::vector<RepairOperation> ops =
      MakeTrace(initial, num_ops, seed, num_attrs, draw);

  ViolationSet watched_final;
  ViolationSet fresh_final;
  ReplayCounts counts;
  const double watched_s = ReplayIndex(schema, dcs, initial, ops,
                                       &watched_final, &fresh_final, &counts);

  // The maintained state must agree with detection up to subset order,
  // violation multiplicities included.
  if (Sorted(watched_final) != Sorted(fresh_final) ||
      watched_final.num_minimal_violations() !=
          fresh_final.num_minimal_violations()) {
    std::fprintf(stderr, "%s: incremental state diverges from detection\n",
                 label);
    return false;
  }
  std::string scratch_cell = "-";
  if (!skip_scratch) {
    ViolationSet scratch_final;
    const ViolationDetector detector(schema, dcs);
    const double scratch_s =
        ReplayScratch(detector, initial, ops, &scratch_final);
    if (Sorted(watched_final) != Sorted(scratch_final)) {
      std::fprintf(stderr, "%s: incremental state diverges from scratch\n",
                   label);
      return false;
    }
    scratch_cell = TablePrinter::Num(scratch_s, 3);
  }

  table.AddRow(
      {label, std::to_string(n), std::to_string(dcs.size()),
       std::to_string(ops.size()), TablePrinter::Num(watched_s, 3),
       std::move(scratch_cell),
       TablePrinter::Num(
           watched_s > 0 ? static_cast<double>(ops.size()) / watched_s : 0.0,
           0),
       std::to_string(counts.candidates), std::to_string(counts.fires)});
  return true;
}

// Appends the FD !(t0.Ai = t1.Ai & t0.Aj != t1.Aj).
void AddFd(std::vector<DenialConstraint>& dcs, AttrIndex key, AttrIndex rhs) {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, key}, CompareOp::kEq, Operand{1, key});
  preds.emplace_back(Operand{0, rhs}, CompareOp::kNe, Operand{1, rhs});
  dcs.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
}

// The 3-ary chain !(t0.A = t1.A & t1.B = t2.B & t0.C != t2.C).
DenialConstraint ChainDc() {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
  preds.emplace_back(Operand{1, 1}, CompareOp::kEq, Operand{2, 1});
  preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{2, 2});
  return DenialConstraint(std::vector<RelationId>(3, 0), std::move(preds));
}

Database MakeInstance(std::shared_ptr<const Schema> schema, size_t n,
                      size_t num_attrs, const DrawValue& draw,
                      uint64_t seed) {
  Database db(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.reserve(num_attrs);
    for (size_t a = 0; a < num_attrs; ++a) {
      values.push_back(draw(static_cast<AttrIndex>(a), rng));
    }
    db.Insert(Fact(0, std::move(values)));
  }
  return db;
}

int Run(const BenchArgs& args) {
  PrintHeader(
      "Churn throughput — incremental maintenance vs from-scratch",
      "Seconds to replay one recorded high-churn trace (30% delete /\n"
      "30% insert / 40% update) per maintenance strategy. fd-mesh is a\n"
      "wide binary Sigma (every ordered attribute pair an FD) with\n"
      "mostly-sparse keys, the watched-dispatch sweet spot; order-keyed\n"
      "and order-keyless replay one order constraint on the same\n"
      "instance; kary-chain and mixed exercise anchored-probe pruning.\n"
      "candidates / fires: partners the index examined / witnesses found.");

  TablePrinter table({"workload", "#tuples", "#Sigma", "ops", "watched (s)",
                      "scratch (s)", "watched ops/s", "candidates",
                      "fires"});

  // fd-mesh: R(A0..A7), all 56 ordered-pair FDs. A0 is drawn from a small
  // domain (dense buckets, real violations); the rest from ~8n distinct
  // values, so most key classes have no partner and watched dispatch can
  // skip the probe outright.
  {
    constexpr size_t kAttrs = 8;
    auto schema = std::make_shared<Schema>();
    schema->AddRelation("R", {"A0", "A1", "A2", "A3", "A4", "A5", "A6", "A7"});
    std::vector<DenialConstraint> dcs;
    for (AttrIndex i = 0; i < kAttrs; ++i) {
      for (AttrIndex j = 0; j < kAttrs; ++j) {
        if (i != j) AddFd(dcs, i, j);
      }
    }
    const size_t n = args.SampleSize(1000, 6000);
    const DrawValue draw = [n](AttrIndex attr, Rng& rng) {
      const int64_t domain = attr == 0 ? 20 : static_cast<int64_t>(8 * n);
      return Value(rng.UniformInt(0, domain - 1));
    };
    const Database initial = MakeInstance(schema, n, kAttrs, draw, args.seed);
    if (!RunRow(table, "fd-mesh", n, schema, dcs, initial,
                args.SampleSize(400, 2000), kAttrs, draw, args.seed + 1,
                args.skip_scratch)) {
      return 1;
    }

    // order-keyed: Tax's salary/rate shape, keyed on the dense A0 —
    // !(t.A0 = t'.A0 & t.A1 > t'.A1 & t.A2 < t'.A2).
    std::vector<DenialConstraint> keyed;
    {
      std::vector<Predicate> preds;
      preds.emplace_back(Operand{0, 0}, CompareOp::kEq, Operand{1, 0});
      preds.emplace_back(Operand{0, 1}, CompareOp::kGt, Operand{1, 1});
      preds.emplace_back(Operand{0, 2}, CompareOp::kLt, Operand{1, 2});
      keyed.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
    }
    if (!RunRow(table, "order-keyed", n, schema, keyed, initial,
                args.SampleSize(400, 2000), kAttrs, draw, args.seed + 5,
                args.skip_scratch)) {
      return 1;
    }

    // order-keyless: the FD A1 -> A2 with its key written as two order
    // predicates, so it has no equality key —
    // !(t.A1 <= t'.A1 & t.A1 >= t'.A1 & t.A2 != t'.A2).
    std::vector<DenialConstraint> keyless;
    {
      std::vector<Predicate> preds;
      preds.emplace_back(Operand{0, 1}, CompareOp::kLe, Operand{1, 1});
      preds.emplace_back(Operand{0, 1}, CompareOp::kGe, Operand{1, 1});
      preds.emplace_back(Operand{0, 2}, CompareOp::kNe, Operand{1, 2});
      keyless.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
    }
    if (!RunRow(table, "order-keyless", n, schema, keyless, initial,
                args.SampleSize(400, 2000), kAttrs, draw, args.seed + 6,
                args.skip_scratch)) {
      return 1;
    }
  }

  // kary-chain / mixed: R(A, B, C) over a small domain. mixed adds two
  // FDs on top of the chain so one trace drives both the binary watcher
  // path and the k-ary anchored path.
  {
    auto schema = std::make_shared<Schema>();
    schema->AddRelation("R", {"A", "B", "C"});
    const DrawValue draw = [](AttrIndex, Rng& rng) {
      return Value(rng.UniformInt(0, 7));
    };
    // Clamped: domain-8 values make bucket population linear in n, and
    // anchored enumeration quadratic in it — the 1M regime (--scale=1000)
    // belongs to fd-mesh; these rows cap where they still finish.
    const size_t n = std::min<size_t>(args.SampleSize(200, 600), 5000);
    const size_t num_ops = std::min<size_t>(args.SampleSize(150, 600), 5000);
    const Database initial = MakeInstance(schema, n, 3, draw, args.seed + 2);

    std::vector<DenialConstraint> chain_only;
    chain_only.push_back(ChainDc());
    if (!RunRow(table, "kary-chain", n, schema, chain_only, initial, num_ops,
                3, draw, args.seed + 3, args.skip_scratch)) {
      return 1;
    }

    std::vector<DenialConstraint> mixed;
    mixed.push_back(ChainDc());
    AddFd(mixed, 0, 1);
    AddFd(mixed, 1, 2);
    if (!RunRow(table, "mixed", n, schema, mixed, initial, num_ops, 3, draw,
                args.seed + 4, args.skip_scratch)) {
      return 1;
    }
  }

  Emit(args, "churn", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
