#include "measures/mc_measures.h"

#include <cmath>
#include <limits>

#include "graph/bron_kerbosch.h"

namespace dbim {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

// Counts maximal independent sets of a small hypergraph by subset
// enumeration: S is independent iff no (hyper)edge is fully inside S, and
// maximal iff adding any outside vertex breaks independence.
double CountMisHypergraph(size_t n,
                          const std::vector<std::vector<uint32_t>>& edges) {
  const uint64_t limit = 1ull << n;
  auto independent = [&](uint64_t s) {
    for (const auto& e : edges) {
      bool inside = true;
      for (const uint32_t v : e) {
        if (((s >> v) & 1ull) == 0) {
          inside = false;
          break;
        }
      }
      if (inside) return false;
    }
    return true;
  };
  double count = 0.0;
  for (uint64_t s = 0; s < limit; ++s) {
    if (!independent(s)) continue;
    bool maximal = true;
    for (uint32_t v = 0; v < n && maximal; ++v) {
      if ((s >> v) & 1ull) continue;
      if (independent(s | (1ull << v))) maximal = false;
    }
    if (maximal) count += 1.0;
  }
  return count;
}

}  // namespace

double MaxConsistentSubsetsMeasure::CountMaxConsistent(
    MeasureContext& context) const {
  const ConflictGraph& cg = context.conflict_graph();

  // Self-inconsistent facts belong to no consistent subset, and
  // non-problematic facts are in every maximal consistent subset: neither
  // affects the count. A self-inconsistent vertex is isolated in the graph,
  // so it lies in every maximal independent set and leaves their count be.
  if (cg.HasHyperedges()) {
    // The enumeration runs over the remaining problematic vertices only.
    std::vector<uint32_t> relabel(cg.num_vertices(), UINT32_MAX);
    uint32_t live = 0;
    for (uint32_t v = 0; v < cg.num_vertices(); ++v) {
      if (!cg.self_inconsistent()[v]) relabel[v] = live++;
    }
    if (live > options_.max_hyper_vertices) return kNan;
    std::vector<std::vector<uint32_t>> edges;
    for (const auto& [a, b] : cg.graph().edges()) {
      edges.push_back({relabel[a], relabel[b]});
    }
    for (const auto& he : cg.hyperedges()) {
      std::vector<uint32_t> e;
      for (const uint32_t v : he) e.push_back(relabel[v]);
      edges.push_back(std::move(e));
    }
    return CountMisHypergraph(live, edges);
  }

  MisCountOptions options;
  options.deadline_seconds = options_.deadline_seconds;
  const MisCountResult result =
      CountMaximalIndependentSets(cg.graph(), options);
  if (!result.complete) return kNan;
  return result.count;
}

double MaxConsistentSubsetsMeasure::Evaluate(MeasureContext& context) const {
  const double count = CountMaxConsistent(context);
  if (std::isnan(count)) return count;
  return count - 1.0;
}

double McWithSelfInconsistenciesMeasure::Evaluate(
    MeasureContext& context) const {
  const double count = CountMaxConsistent(context);
  if (std::isnan(count)) return count;
  const double selfinc =
      static_cast<double>(context.conflict_graph().num_self_inconsistent());
  return count + selfinc - 1.0;
}

}  // namespace dbim
