// Google-benchmark microbenchmarks for the combinatorial substrate: the
// violation detector and its witness store, the matching/flow-based
// fractional vertex cover, the exact cover branch & bound, Bron–Kerbosch
// counting, and the simplex.
#include <benchmark/benchmark.h>

#include <algorithm>

#include "common/rng.h"
#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "graph/bron_kerbosch.h"
#include "graph/fractional_vc.h"
#include "graph/graph.h"
#include "graph/vertex_cover.h"
#include "lp/covering.h"
#include "measures/repair_measures.h"
#include "violations/detector.h"
#include "violations/violation.h"

namespace dbim {
namespace {

SimpleGraph RandomGraph(size_t n, double p, uint64_t seed) {
  Rng rng(seed);
  SimpleGraph g(n);
  for (uint32_t a = 0; a < n; ++a) {
    for (uint32_t b = a + 1; b < n; ++b) {
      if (rng.Bernoulli(p)) g.AddEdge(a, b);
    }
  }
  g.Normalize();
  return g;
}

Database NoisyDataset(DatasetId id, size_t n, int steps) {
  const Dataset dataset = MakeDataset(id, n, 42);
  const CoNoiseGenerator noise(dataset.data, dataset.constraints);
  Database db = dataset.data;
  Rng rng(7);
  for (int i = 0; i < steps; ++i) noise.Step(db, rng);
  return db;
}

void BM_DetectViolationsHospital(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset dataset = MakeDataset(DatasetId::kHospital, n, 42);
  const CoNoiseGenerator noise(dataset.data, dataset.constraints);
  Database db = dataset.data;
  Rng rng(7);
  for (int i = 0; i < 30; ++i) noise.Step(db, rng);
  const ViolationDetector detector(dataset.schema, dataset.constraints);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.FindViolations(db));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_DetectViolationsHospital)->Arg(500)->Arg(2000)->Arg(8000);

// The witness store alone, under a stream shaped like repair-loop's Apply
// on Tax: 50 dirty facts at a time, each in conflict with the 115 other
// facts of its group (≈5 700 live pairs). One op restores the oldest dirty
// fact (RemoveInvolving, then the compaction check Apply runs after it)
// and dirties the next fact of a fixed random stream (115 pair admits).
void BM_WitnessStoreChurn(benchmark::State& state) {
  const FactId n = static_cast<FactId>(state.range(0));
  constexpr FactId kGroup = 116;
  constexpr size_t kDirty = 50;
  Rng rng(42);
  std::vector<FactId> stream(4096);
  for (FactId& id : stream) id = static_cast<FactId>(rng.UniformIndex(n));
  WitnessStore store;
  auto dirty = [&](FactId id) {
    const FactId first = id / kGroup * kGroup;
    for (FactId other = first; other < std::min(first + kGroup, n); ++other) {
      if (other != id) store.Admit({std::min(id, other), std::max(id, other)});
    }
  };
  size_t next = 0;
  for (; next < kDirty; ++next) dirty(stream[next]);
  for (auto _ : state) {
    store.RemoveInvolving(stream[(next - kDirty) % stream.size()]);
    store.CompactIfWasteful(0.5);
    dirty(stream[next++ % stream.size()]);
    benchmark::DoNotOptimize(store.num_live());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WitnessStoreChurn)->Arg(10000)->Arg(100000);

// Conflict graphs for BM_FractionalVertexCover. Shape 0 is a random
// G(n, 4/n). The others are what an FD's violations look like on Tax and
// Voter, as disjoint groups of 2-16 facts sharing a key: a group whose
// facts agree but for one corrupted fact is a star centred on it (shape
// 1), and a group split over 2-4 right-hand-side values is complete
// multipartite, one part per value (shape 2).
SimpleGraph ConflictShapedGraph(size_t n, int64_t shape) {
  if (shape == 0) return RandomGraph(n, 4.0 / static_cast<double>(n), 3);
  Rng rng(13);
  SimpleGraph g(n);
  for (uint32_t begin = 0; begin < n;) {
    const auto size = static_cast<uint32_t>(std::min<size_t>(
        2 + rng.UniformIndex(15), n - begin));
    const uint32_t end = begin + size;
    if (shape == 1) {
      for (uint32_t leaf = begin + 1; leaf < end; ++leaf) {
        g.AddEdge(begin, leaf);
      }
    } else {
      const uint32_t parts = 2 + static_cast<uint32_t>(rng.UniformIndex(3));
      for (uint32_t a = begin; a < end; ++a) {
        for (uint32_t b = a + 1; b < end; ++b) {
          if ((a - begin) % parts != (b - begin) % parts) g.AddEdge(a, b);
        }
      }
    }
    begin = end;
  }
  g.Normalize();
  return g;
}

void BM_FractionalVertexCover(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SimpleGraph g = ConflictShapedGraph(n, state.range(1));
  const std::vector<double> w(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FractionalVertexCover(g, w));
  }
}
BENCHMARK(BM_FractionalVertexCover)
    ->ArgNames({"n", "shape"})
    ->Args({100, 0})
    ->Args({1000, 0})
    ->Args({5000, 0})
    ->Args({1000, 1})
    ->Args({5000, 1})
    ->Args({1000, 2})
    ->Args({5000, 2});

void BM_ExactVertexCover(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SimpleGraph g = RandomGraph(n, 3.0 / static_cast<double>(n), 5);
  const std::vector<double> w(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        MinWeightVertexCover(g, w, FractionalVertexCover(g, w).x, {}));
  }
}
BENCHMARK(BM_ExactVertexCover)->Arg(50)->Arg(200)->Arg(1000);

void BM_CountMaximalIndependentSets(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const SimpleGraph g = RandomGraph(n, 0.15, 9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountMaximalIndependentSets(g));
  }
}
BENCHMARK(BM_CountMaximalIndependentSets)->Arg(30)->Arg(60)->Arg(90);

void BM_CoveringLpSimplex(benchmark::State& state) {
  const size_t sets = static_cast<size_t>(state.range(0));
  Rng rng(11);
  CoveringProblem problem;
  problem.costs.assign(60, 1.0);
  for (size_t s = 0; s < sets; ++s) {
    uint32_t a = static_cast<uint32_t>(rng.UniformIndex(60));
    uint32_t b = static_cast<uint32_t>(rng.UniformIndex(60));
    if (a == b) b = (b + 1) % 60;
    problem.sets.push_back({std::min(a, b), std::max(a, b)});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveCoveringLpRelaxation(problem));
  }
}
BENCHMARK(BM_CoveringLpSimplex)->Arg(50)->Arg(200)->Arg(500);

void BM_LinRepairEndToEnd(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset dataset = MakeDataset(DatasetId::kTax, n, 42);
  const Database db = NoisyDataset(DatasetId::kTax, n, static_cast<int>(n / 100));
  const ViolationDetector detector(dataset.schema, dataset.constraints);
  LinRepairMeasure lin;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lin.EvaluateFresh(detector, db));
  }
}
BENCHMARK(BM_LinRepairEndToEnd)->Arg(1000)->Arg(4000);

}  // namespace
}  // namespace dbim

BENCHMARK_MAIN();
