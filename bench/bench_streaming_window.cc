// Streaming & approximate measurement (not a paper figure): the two cost
// claims of the streaming layer, measured on one host so the CI gate is
// self-relative and immune to runner variance:
//
//   slide (s)     — replaying a fact stream through a count-windowed
//                   StreamSession: every slide is batched insert/delete
//                   Apply ops on the session's incremental index, plus the
//                   O(1) minimal-subset snapshot after each slide;
//   redetect (s)  — the naive alternative: the same window maintained on a
//                   plain database with a full ViolationDetector pass
//                   after every slide;
//   approx (s)    — ApproxEvaluator at eps = 0.1 over a static corpus
//                   (sampling estimators for I_MI, I_P, I_R, I_lin_R);
//   exact (s)     — the same evaluator forced down its exact path
//                   (eps = 0), i.e. full detection plus the exact measure
//                   suite on the same corpus.
//
// Both pairs replay identical inputs and are cross-checked: the streamed
// session must end on exactly the re-detected violation count, and the
// exact-path report is the reference the estimates are sanity-checked
// against. The CI gates (check_bench_regression.py --self) assert
// slide <= redetect (max-ratio 1.0) and approx <= 0.5 * exact.
#include <cmath>
#include <cstdio>
#include <deque>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "constraints/predicate.h"
#include "measures/session.h"
#include "streaming/approx.h"
#include "streaming/stream_session.h"

namespace dbim::bench {
namespace {

// The FD !(t0.Ai = t1.Ai & t0.Aj != t1.Aj).
void AddFd(std::vector<DenialConstraint>& dcs, AttrIndex key, AttrIndex rhs) {
  std::vector<Predicate> preds;
  preds.emplace_back(Operand{0, key}, CompareOp::kEq, Operand{1, key});
  preds.emplace_back(Operand{0, rhs}, CompareOp::kNe, Operand{1, rhs});
  dcs.emplace_back(std::vector<RelationId>(2, 0), std::move(preds));
}

// One deterministic fact stream over R(A, B, C): both FD key attributes
// (A for A -> B, B for B -> C) draw from `key_domain`, so key collisions
// are birthday-rare and the conflict graph stays subcritical (many small
// components — the regime both the incremental slide path and the repair
// estimators are built for, see approx.h). C stays small so colliding
// keys actually violate. `key_domain` relative to n controls density.
std::vector<Fact> MakeStream(size_t n, int64_t key_domain, uint64_t seed) {
  Rng rng(seed);
  std::vector<Fact> facts;
  facts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<Value> values;
    values.emplace_back(rng.UniformInt(0, key_domain - 1));
    values.emplace_back(rng.UniformInt(0, key_domain - 1));
    values.emplace_back(rng.UniformInt(0, 7));
    facts.emplace_back(0, std::move(values));
  }
  return facts;
}

bool RunRow(TablePrinter& table, const char* label,
            std::shared_ptr<const Schema> schema,
            const std::vector<DenialConstraint>& dcs,
            const std::vector<Fact>& stream, size_t window_size,
            const BenchArgs& args) {
  // --- incremental slide path -------------------------------------------
  // Measure maintenance, not measure evaluation: each Push slides the
  // window through the incremental index and NumMinimalSubsets snapshots
  // the maintained |MI| — the signal SUBSCRIBE watchers and per-slide
  // monitoring consume.
  SessionOptions options = args.Options();
  options.registry.only = {"I_d"};  // registry construction kept minimal
  MeasureSession session(schema, dcs, options);
  WindowSpec window;
  window.kind = WindowSpec::Kind::kCount;
  window.size = window_size;
  size_t slide_subsets = 0;
  Timer slide_timer;
  StreamSession streaming(&session, window);
  for (size_t i = 0; i < stream.size(); ++i) {
    streaming.Push(stream[i], i);
    slide_subsets = session.NumMinimalSubsets(streaming.handle());
  }
  const double slide_s = slide_timer.Seconds();

  // --- per-window re-detection path -------------------------------------
  const ViolationDetector detector(schema, dcs);
  Database plain(schema);
  std::deque<FactId> live;
  size_t redetect_subsets = 0;
  Timer redetect_timer;
  for (const Fact& fact : stream) {
    live.push_back(plain.Insert(fact));
    while (live.size() > window_size) {
      plain.Delete(live.front());
      live.pop_front();
    }
    redetect_subsets = detector.FindViolations(plain).num_minimal_subsets();
  }
  const double redetect_s = redetect_timer.Seconds();
  if (slide_subsets != redetect_subsets) {
    std::fprintf(stderr, "%s: streamed window diverges from re-detection "
                 "(%zu vs %zu minimal subsets)\n",
                 label, slide_subsets, redetect_subsets);
    return false;
  }

  // --- sampling estimators vs the exact suite ---------------------------
  // Static corpus: the whole stream as one database. eps = 0 forces the
  // evaluator's exact fallback, so both timings run the same harness.
  Database corpus(schema);
  for (const Fact& fact : stream) corpus.Insert(fact);

  const ApproxEvaluator approx(detector,
                               ApproxOptions().WithEps(0.1).WithSeed(args.seed));
  Timer approx_timer;
  const ApproxReport approx_report = approx.Evaluate(corpus);
  const double approx_s = approx_timer.Seconds();

  const ApproxEvaluator exact(detector, ApproxOptions().WithEps(0.0));
  Timer exact_timer;
  const ApproxReport exact_report = exact.Evaluate(corpus);
  const double exact_s = exact_timer.Seconds();

  if (approx_report.exact || !exact_report.exact) {
    std::fprintf(stderr, "%s: estimator paths mis-selected\n", label);
    return false;
  }
  // Sanity: the exact I_P value must land within three interval half-widths
  // of the estimate. Exact containment would be a 95% event — a correct
  // estimator fails it 1-in-20 seeds — while 3 half-widths (~4 sigma) only
  // trips on a genuinely broken estimator.
  const ApproxEstimate* est = approx_report.Find("I_P");
  const ApproxEstimate* truth = exact_report.Find("I_P");
  if (est == nullptr || truth == nullptr) {
    std::fprintf(stderr, "%s: I_P missing from a report\n", label);
    return false;
  }
  const double half_width = (est->ci_high - est->ci_low) / 2.0;
  if (std::abs(est->estimate - truth->estimate) > 3.0 * half_width) {
    std::fprintf(stderr,
                 "%s: I_P estimate %g is too far from the exact value %g "
                 "(interval half-width %g)\n",
                 label, est->estimate, truth->estimate, half_width);
    return false;
  }

  table.AddRow({label, std::to_string(stream.size()),
                std::to_string(window_size), std::to_string(slide_subsets),
                TablePrinter::Num(slide_s, 3),
                TablePrinter::Num(redetect_s, 3),
                TablePrinter::Num(approx_s, 3),
                TablePrinter::Num(exact_s, 3)});
  return true;
}

int Run(const BenchArgs& args) {
  PrintHeader(
      "Streaming window & sampling estimators",
      "slide: count-window StreamSession replay (incremental maintenance\n"
      "per slide). redetect: same window, full detection per slide.\n"
      "approx/exact: ApproxEvaluator at eps=0.1 vs its exact path over\n"
      "the full stream as a static corpus. CI gates: slide <= redetect,\n"
      "approx <= 0.5 * exact (self-relative, same host).");

  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"A", "B", "C"});
  std::vector<DenialConstraint> dcs;
  AddFd(dcs, 0, 1);
  AddFd(dcs, 1, 2);

  TablePrinter table({"workload", "n", "window", "subsets", "slide (s)",
                      "redetect (s)", "approx (s)", "exact (s)"});

  // dense: key domain 3n — roughly n/6 colliding pairs per FD, so both
  // windows and the static corpus carry plenty of small components; the
  // estimator's sweet spot and the heaviest exact suite.
  {
    const size_t n = args.SampleSize(2000, 8000);
    const std::vector<Fact> stream =
        MakeStream(n, static_cast<int64_t>(3 * n), args.seed);
    if (!RunRow(table, "dense", schema, dcs, stream,
                args.SampleSize(200, 800), args)) {
      return 1;
    }
  }

  // sparse: key domain 10n — violations an order of magnitude rarer; the
  // regime where per-slide work is a handful of bucket probes.
  {
    const size_t n = args.SampleSize(2000, 8000);
    const std::vector<Fact> stream =
        MakeStream(n, static_cast<int64_t>(10 * n), args.seed + 1);
    if (!RunRow(table, "sparse", schema, dcs, stream,
                args.SampleSize(250, 1000), args)) {
      return 1;
    }
  }

  Emit(args, "streaming", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
