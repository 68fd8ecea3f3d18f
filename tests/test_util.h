#ifndef DBIM_TESTS_TEST_UTIL_H_
#define DBIM_TESTS_TEST_UTIL_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "constraints/dc.h"
#include "constraints/fd.h"
#include "datagen/running_example.h"
#include "relational/database.h"
#include "relational/operations.h"
#include "relational/schema.h"
#include "violations/violation.h"

namespace dbim::testing {

/// Re-exported from the library (datagen/running_example.h) for tests.
using dbim::MakeRunningExample;
using dbim::RunningExample;

/// A small random database over R(A,B,C) with values in [0, domain), used
/// by the parameterized property sweeps.
Database MakeRandomDatabase(std::shared_ptr<const Schema> schema,
                            RelationId relation, size_t num_facts,
                            int64_t domain, uint64_t seed);

/// Schema with a single relation R(A,B,C).
std::shared_ptr<const Schema> MakeAbcSchema();

/// MI_Sigma(D) computed the slow, obviously correct way — the reference the
/// detector and the incremental index are checked against.
struct NaiveMi {
  /// Minimal inconsistent subsets, each sorted, in lexicographic order.
  std::vector<std::vector<FactId>> subsets;
  /// The (F, sigma) count of ViolationSet::num_minimal_violations(): one
  /// per contradictory fact, plus one per (binary constraint, minimal
  /// pair it is violated by). Computed only when every constraint has at
  /// most two variables.
  std::optional<size_t> num_violations;
};

/// Enumerates every fact, pair and k-tuple of `db` and evaluates each
/// constraint on materialized Facts with DenialConstraint::BodyHolds /
/// MakesSelfInconsistent (no eval kernel, no blocking, no pool class
/// ids), then keeps the supports with no inconsistent proper subset.
/// O(|Sigma| n^k): a few hundred facts for binary Sigma, a few dozen
/// for k-ary.
NaiveMi NaiveMinimalSubsets(const std::vector<DenialConstraint>& dcs,
                            const Database& db);

/// The subsets of `v`, each sorted, in lexicographic order — the layout of
/// NaiveMi::subsets.
std::vector<std::vector<FactId>> SortedSubsets(const ViolationSet& v);

/// Asserts (gtest) that `v` is exactly the oracle's MI_Sigma(D) of `db`,
/// including the (F, sigma) count for unary/binary Sigma.
void ExpectMatchesOracle(const std::vector<DenialConstraint>& dcs,
                         const Database& db, const ViolationSet& v);

struct ScriptedWorkloadOptions {
  RelationId relation = 0;
  /// Integer draws come from [0, domain).
  int64_t domain = 6;
  /// Default draw mode for Next(db): churn draws mint a fresh
  /// "churn_<n>" string per cell, so the shared value pool accumulates
  /// dead entries (the vacuum trigger the session tests lean on).
  bool churn = false;
  /// First value of the churn counter (lets concurrent handles mint
  /// disjoint string ranges).
  int64_t churn_start = 0;
};

/// The repo's one randomized mutation script: delete / fresh insert /
/// duplicate insert (distinct id, equal cells) / single-attribute update,
/// uniformly once any fact is live, insert-only before that. Deterministic
/// in the seed. Shared by the session parity fuzz, the watched-dispatch
/// lockstep sweeps, and the service wire-mirror tests, so every layer is
/// exercised by the same trajectory distribution.
class ScriptedWorkload {
 public:
  explicit ScriptedWorkload(uint64_t seed,
                            ScriptedWorkloadOptions options = {});

  /// The next operation, valid against `db` (ids are drawn from db.ids()).
  RepairOperation Next(const Database& db);

  /// Same, overriding the default churn mode for this draw.
  RepairOperation Next(const Database& db, bool churn);

 private:
  Rng rng_;
  ScriptedWorkloadOptions options_;
  int64_t churn_counter_;
};

}  // namespace dbim::testing

#endif  // DBIM_TESTS_TEST_UTIL_H_
