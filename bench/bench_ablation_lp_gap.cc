// Ablation (not a paper figure): the integrality gap I_R / I_lin_R in
// practice, plus solver internals — Nemhauser–Trotter kernel size and
// branch & bound nodes for I_R, and flow-path vs simplex-path runtime for
// I_lin_R. Section 5.2 of the paper bounds the gap by the maximum witness
// size (2 for these DC sets); real noisy data sits far below it.
#include <cstdio>

#include "bench_util.h"
#include "common/timer.h"
#include "graph/fractional_vc.h"
#include "graph/vertex_cover.h"
#include "lp/covering.h"
#include "measures/repair_measures.h"

namespace dbim::bench {
namespace {

int Run(const BenchArgs& args) {
  PrintHeader("Ablation — I_R vs I_lin_R gap and solver internals",
              "Gap = I_R / I_lin_R (bounded by 2 for binary witnesses);\n"
              "kernel = half-integral vertices after NT kernelization;\n"
              "flow vs simplex: the two exact I_lin_R paths.");

  TablePrinter table({"dataset", "#edges", "I_R", "I_lin_R", "gap",
                      "kernel", "bb nodes", "flow (s)", "simplex (s)"});
  Rng rng(args.seed);
  for (const DatasetId id : AllDatasets()) {
    const size_t n = args.SampleSize(800, 5000);
    const Dataset dataset = MakeDataset(id, n, args.seed);
    const CoNoiseGenerator noise(dataset.data, dataset.constraints);
    Database db = dataset.data;
    Rng run_rng = rng.Fork();
    for (int i = 0; i < 60; ++i) noise.Step(db, run_rng);

    const ViolationDetector detector(dataset.schema, dataset.constraints);
    MeasureContext context(detector, db);
    const ConflictGraph& cg = context.conflict_graph();
    if (cg.HasHyperedges()) continue;  // all experiment DCs are binary

    SimpleGraph g(cg.num_vertices());
    std::vector<double> weights = cg.weights();
    double forced = 0.0;
    for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
      if (cg.self_inconsistent()[v]) forced += cg.weights()[v];
    }
    for (const auto& [a, b] : cg.edges()) g.AddEdge(a, b);
    g.Normalize();

    // Exact cover with stats.
    const VertexCoverResult cover = MinWeightVertexCover(g, weights);
    const double exact = forced + cover.value;

    // Fractional: flow path, with kernel statistics.
    Timer flow_timer;
    const FractionalVcResult lp = FractionalVertexCover(g, weights);
    const double flow_seconds = flow_timer.Seconds();
    size_t kernel = 0;
    for (const double x : lp.x) {
      if (x > 0.25 && x < 0.75) ++kernel;
    }
    const double fractional = forced + lp.value;

    // Simplex path on the identical covering LP.
    CoveringProblem problem;
    problem.costs = weights;
    for (const auto& [a, b] : g.edges()) {
      problem.sets.push_back({std::min(a, b), std::max(a, b)});
    }
    Timer simplex_timer;
    double simplex_seconds = -1.0;
    if (problem.sets.size() <= 4000) {  // dense tableau guard
      (void)SolveCoveringLpRelaxation(problem);
      simplex_seconds = simplex_timer.Seconds();
    }

    table.AddRow(
        {DatasetName(id), std::to_string(g.num_edges()),
         TablePrinter::Num(exact, 1), TablePrinter::Num(fractional, 1),
         TablePrinter::Num(fractional > 0 ? exact / fractional : 1.0, 4),
         std::to_string(kernel), std::to_string(cover.bb_nodes),
         TablePrinter::Num(flow_seconds, 4),
         simplex_seconds < 0 ? "skipped" : TablePrinter::Num(simplex_seconds, 4)});
  }
  Emit(args, "ablation_lp_gap", table);
  return 0;
}

}  // namespace
}  // namespace dbim::bench

int main(int argc, char** argv) {
  return dbim::bench::Run(dbim::bench::BenchArgs::Parse(argc, argv));
}
