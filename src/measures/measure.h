#ifndef DBIM_MEASURES_MEASURE_H_
#define DBIM_MEASURES_MEASURE_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "relational/database.h"
#include "violations/conflict_graph.h"
#include "violations/detector.h"
#include "violations/violation.h"

namespace dbim {

/// Shared per-(Sigma, D) computation state. Detecting violations dominates
/// the cost of most measures (the paper observes the SQL self-join dominates
/// for large datasets); the context computes MI_Sigma(D) and the conflict
/// graph once and lets every measure reuse them.
///
/// Thread safety: the lazy members memoize through std::call_once, so
/// concurrent measure evaluations on one shared context (see
/// SessionOptions::parallel_measures) race neither on first
/// materialization nor afterwards — once set, both are only ever read.
/// Everything else a measure reaches through the context is const:
/// detection, ids()/deletion_cost()/pool() on the database, and the graph
/// accessors. (The Database's lazily cached row-major fact(id) view is NOT
/// part of that const surface and must not be called concurrently; no
/// registry measure uses it.)
class MeasureContext {
 public:
  MeasureContext(const ViolationDetector& detector, const Database& db)
      : detector_(detector), db_(db) {}

  /// Context over a precomputed MI set — no detection pass runs; measures
  /// evaluate against `violations` as-is. This is how a MeasureSession
  /// hands an incrementally maintained snapshot to the measure suite.
  MeasureContext(const ViolationDetector& detector, const Database& db,
                 ViolationSet violations)
      : detector_(detector), db_(db), violations_(std::move(violations)) {}

  const Database& db() const { return db_; }
  const ViolationDetector& detector() const { return detector_; }

  /// MI_Sigma(D), computed on first use.
  const ViolationSet& violations();

  /// Conflict structure of the database, computed on first use.
  const ConflictGraph& conflict_graph();

  /// Eagerly computes both lazy members on the calling thread. call_once
  /// already makes lazy first use safe under concurrency, but stragglers
  /// would block on the one thread doing the work — materializing before a
  /// parallel evaluation keeps workers compute-bound and keeps the first
  /// graph consumer's timing from absorbing the build.
  void Materialize();

 private:
  const ViolationDetector& detector_;
  const Database& db_;
  std::once_flag violations_once_;
  std::once_flag conflict_graph_once_;
  std::optional<ViolationSet> violations_;
  std::optional<ConflictGraph> conflict_graph_;
};

/// An inconsistency measure I(Sigma, D) -> [0, inf) (paper Section 3). The
/// constraint set Sigma lives in the ViolationDetector; implementations are
/// pure functions of the context.
///
/// The two standard requirements hold for every implementation here:
/// I(Sigma, D) = 0 whenever D |= Sigma, and invariance under logical
/// equivalence of Sigma (all measures depend on Sigma only through its
/// violation witnesses, which equivalent constraint sets share).
class InconsistencyMeasure {
 public:
  virtual ~InconsistencyMeasure() = default;

  /// Short identifier, e.g. "I_MI".
  virtual std::string name() const = 0;

  /// Evaluates on a prepared context.
  virtual double Evaluate(MeasureContext& context) const = 0;

  /// Convenience: builds a throwaway context. This prices in violation
  /// detection, matching how the paper times each measure end to end.
  double EvaluateFresh(const ViolationDetector& detector,
                       const Database& db) const {
    MeasureContext context(detector, db);
    return Evaluate(context);
  }

  /// Whether the value is exact for hyperedge witnesses (minimal
  /// inconsistent subsets of size >= 3) or only defined for binary ones.
  virtual bool SupportsHyperedges() const { return true; }
};

}  // namespace dbim

#endif  // DBIM_MEASURES_MEASURE_H_
