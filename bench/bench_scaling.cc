// Thread-sweep scaling rig (not a paper figure): wall time of the three
// many-core hot paths at 1/2/4/8/16 threads, in one table the CI curve
// gate (check_bench_regression.py --curve) can police:
//
//   detect          — ViolationDetector::FindViolations with a skewed key
//                     distribution (one value owns ~20% of the rows, the
//                     fig9-style adversary for static chunking), routed
//                     through the work-stealing OrderedStealingFor; each
//                     row is the median of 5 calls on the same instance.
//                     Every call's result is checked bit-identical to the
//                     1-thread reference — the rig hard-fails on
//                     divergence.
//   intern striped  — t real threads interning a fixed total stream of
//                     overlapping int/double/string values into ONE shared
//                     default-striped ValuePool (the lock-striping win).
//   intern 1-stripe — the same stream into a ValuePool(1), i.e. a
//                     single-mutex pool (the baseline the overhead-pair
//                     gate compares against at 1 thread).
//   session         — t threads driving disjoint handles of one
//                     MeasureSession (auto-vacuum 0.5) through recorded
//                     update traces; final per-handle reports are checked
//                     identical to the 1-thread run.
//
// Per-workload speedup columns (t1 / tN) are for humans and ROADMAP; the
// gate reads the seconds columns, so it needs no baseline file and is
// immune to runner-speed variance: on a 1-CPU runner every row sits at
// the noise floor and the gate degenerates to an overhead check, on real
// cores a thread count that *slows down* past the best earlier count
// fails. Sweep and sizes: --thread-sweep=1,2,4 (default 1,2,4,8,16),
// --scale as usual (CI runs --scale=0.5).
#include <algorithm>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "constraints/predicate.h"
#include "violations/violation.h"

namespace dbim::bench {
namespace {

// Appends the FD !(t0.Ai = t1.Ai & t0.Aj != t1.Aj).
void AddFd(std::vector<DenialConstraint>& dcs, AttrIndex key, AttrIndex rhs) {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, key}, CompareOp::kEq, Operand{1, key});
  preds.emplace_back(Operand{0, rhs}, CompareOp::kNe, Operand{1, rhs});
  dcs.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
}

// Skewed instance: attribute 0 is the blocking key, and one hot value owns
// ~20% of all rows — under a static chunk split the chunk holding the hot
// bucket dominates the probe phase, which is exactly what work stealing is
// supposed to dissolve.
Database MakeSkewedInstance(std::shared_ptr<const Schema> schema, size_t n,
                            uint64_t seed) {
  Database db(schema);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const int64_t key =
        rng.UniformInt(0, 9) < 2 ? 0 : rng.UniformInt(1, 49);
    db.Insert(Fact(0, {Value(key), Value(rng.UniformInt(0, 19)),
                       Value(rng.UniformInt(0, 999))}));
  }
  return db;
}

// Deterministic value stream for the intern workloads: ints, doubles and
// strings over one numeric domain, so semantically equal int/double pairs
// (2 and 2.0 share a class) land on every thread and the striped pool's
// cross-thread class election is exercised, not just bumped past.
Value ValueFor(size_t i, size_t domain) {
  const size_t k = (i * 2654435761u) % domain;
  switch (i % 3) {
    case 0:
      return Value(static_cast<int64_t>(k));
    case 1:
      return Value(static_cast<double>(k));
    default:
      return Value("s" + std::to_string(k));
  }
}

// Interns `total` stream values into `pool` from `t` threads (contiguous
// shards); returns wall seconds for the whole join.
double RunInternChurn(ValuePool& pool, size_t total, size_t t,
                      size_t domain) {
  t = std::max<size_t>(t, 1);
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(t);
  for (size_t w = 0; w < t; ++w) {
    const size_t begin = total * w / t;
    const size_t end = total * (w + 1) / t;
    threads.emplace_back([&pool, begin, end, domain] {
      for (size_t i = begin; i < end; ++i) pool.Intern(ValueFor(i, domain));
    });
  }
  for (std::thread& th : threads) th.join();
  return timer.Seconds();
}

// One session-apply run: `t` threads drive disjoint handles of a shared
// MeasureSession through per-handle recorded traces. Returns wall seconds
// and fills `reports` with the final per-handle evaluations.
double RunSessionApply(const Dataset& base, size_t num_handles,
                       const std::vector<std::vector<RepairOperation>>& traces,
                       size_t t, std::vector<BatchReport>& reports) {
  MeasureSession session(base.schema, base.constraints,
                         SessionOptions().WithAutoVacuum(0.5));
  std::vector<DbHandle> handles;
  handles.reserve(num_handles);
  for (size_t h = 0; h < num_handles; ++h) {
    handles.push_back(session.Register(base.data));
  }
  t = std::min(std::max<size_t>(t, 1), num_handles);
  Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(t);
  for (size_t w = 0; w < t; ++w) {
    threads.emplace_back([&, w] {
      for (size_t h = w; h < num_handles; h += t) {
        for (const RepairOperation& op : traces[h]) {
          session.Apply(handles[h], op);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const double seconds = timer.Seconds();
  reports.clear();
  for (const DbHandle handle : handles) {
    reports.push_back(session.Evaluate(handle));
  }
  return seconds;
}

bool SameReports(const std::vector<BatchReport>& a,
                 const std::vector<BatchReport>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].num_minimal_subsets != b[i].num_minimal_subsets) return false;
    if (a[i].measures.size() != b[i].measures.size()) return false;
    for (size_t m = 0; m < a[i].measures.size(); ++m) {
      if (a[i].measures[m].name != b[i].measures[m].name ||
          a[i].measures[m].value != b[i].measures[m].value) {
        return false;
      }
    }
  }
  return true;
}

std::string Speedup(double t1, double tn) {
  if (tn <= 0.0) return "-";
  return TablePrinter::Num(t1 / tn, 2) + "x";
}

int Run(const BenchArgs& args) {
  PrintHeader(
      "Thread-sweep scaling — detect / intern churn / session apply",
      "Wall seconds per workload at each thread count, same total work.\n"
      "detect (median of 5 calls) is parity-checked call by call against\n"
      "the 1-thread run (bit-identical violation sets); session reports\n"
      "must match across counts. The CI gate asserts the seconds curves\n"
      "never regress past noise and that striped interning costs <= 1.05x\n"
      "the single-mutex pool at 1 thread.");

  std::vector<size_t> sweep = args.thread_sweep;
  if (sweep.empty()) sweep = {1, 2, 4, 8, 16};

  // detect workload: skewed blocked FDs.
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"K", "B", "C"});
  std::vector<DenialConstraint> dcs;
  AddFd(dcs, 0, 1);
  AddFd(dcs, 0, 2);
  AddFd(dcs, 1, 2);
  const size_t detect_n = args.SampleSize(4000, 40000);
  const Database skewed = MakeSkewedInstance(schema, detect_n, args.seed);

  // intern workload.
  const size_t intern_ops = args.SampleSize(120000, 1200000);
  const size_t intern_domain = std::max<size_t>(intern_ops / 4, 16);

  // session workload: 8 handles over the running-example-sized dataset
  // with recorded update traces (updates only: handle-local fact ids stay
  // valid however threads interleave across handles).
  Dataset session_base =
      MakeDataset(DatasetId::kHospital, args.SampleSize(300, 2000),
                  args.seed + 1);
  constexpr size_t kHandles = 8;
  const size_t trace_ops = args.SampleSize(150, 1000);
  std::vector<std::vector<RepairOperation>> traces(kHandles);
  {
    std::vector<FactId> ids;
    session_base.data.ForEachId([&](FactId id) { ids.push_back(id); });
    std::sort(ids.begin(), ids.end());
    const size_t num_attrs =
        session_base.schema->relation(session_base.relation).arity();
    for (size_t h = 0; h < kHandles; ++h) {
      Rng rng(args.seed + 100 + h);
      traces[h].reserve(trace_ops);
      for (size_t k = 0; k < trace_ops; ++k) {
        const FactId id = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        const AttrIndex attr = static_cast<AttrIndex>(
            rng.UniformInt(0, static_cast<int64_t>(num_attrs) - 1));
        traces[h].push_back(RepairOperation::Update(
            id, attr, Value(rng.UniformInt(0, 99))));
      }
    }
  }

  TablePrinter table({"threads", "detect (s)", "detect x",
                      "intern striped (s)", "intern 1-stripe (s)",
                      "intern x", "session (s)", "session x"});

  constexpr size_t kDetectCalls = 5;
  std::vector<std::vector<FactId>> reference_subsets;
  std::vector<BatchReport> reference_reports;
  double detect_t1 = 0.0, intern_t1 = 0.0, session_t1 = 0.0;
  for (size_t row = 0; row < sweep.size(); ++row) {
    const size_t t = sweep[row];

    DetectorOptions detector_options;
    detector_options.num_threads = t;
    const ViolationDetector detector(schema, dcs, detector_options);
    // Median of kDetectCalls calls on the same instance, so one unusually
    // fast or slow call cannot move the curve gate's best-so-far. Every
    // call is parity-checked against the first 1-thread call.
    std::vector<double> detect_samples;
    for (size_t call = 0; call < kDetectCalls; ++call) {
      Timer detect_timer;
      const ViolationSet violations = detector.FindViolations(skewed);
      detect_samples.push_back(detect_timer.Seconds());
      if (row == 0 && call == 0) {
        reference_subsets = violations.minimal_subsets();
      } else if (violations.minimal_subsets() != reference_subsets) {
        std::fprintf(stderr,
                     "detect @ %zu threads diverges from 1-thread result\n",
                     t);
        return 1;
      }
    }
    std::sort(detect_samples.begin(), detect_samples.end());
    const double detect_s = detect_samples[kDetectCalls / 2];

    ValuePool striped;  // kDefaultStripes
    const double striped_s = RunInternChurn(striped, intern_ops, t,
                                            intern_domain);
    ValuePool single(1);
    const double single_s = RunInternChurn(single, intern_ops, t,
                                           intern_domain);
    if (row == 0) {
      // Same stream, same dedup: both pools must agree on the dictionary.
      if (striped.size() != single.size()) {
        std::fprintf(stderr, "striped/single pool size mismatch\n");
        return 1;
      }
    }

    std::vector<BatchReport> reports;
    const double session_s =
        RunSessionApply(session_base, kHandles, traces, t, reports);
    if (row == 0) {
      reference_reports = std::move(reports);
    } else if (!SameReports(reports, reference_reports)) {
      std::fprintf(stderr,
                   "session @ %zu threads diverges from 1-thread result\n", t);
      return 1;
    }

    if (row == 0) {
      detect_t1 = detect_s;
      intern_t1 = striped_s;
      session_t1 = session_s;
    }
    table.AddRow({std::to_string(t), TablePrinter::Num(detect_s, 3),
                  Speedup(detect_t1, detect_s),
                  TablePrinter::Num(striped_s, 3),
                  TablePrinter::Num(single_s, 3),
                  Speedup(intern_t1, striped_s),
                  TablePrinter::Num(session_s, 3),
                  Speedup(session_t1, session_s)});
  }

  Emit(args, "scaling", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
