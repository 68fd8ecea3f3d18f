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
#include "relational/fact.h"
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

/// The Fact-based constraint evaluator, independent of the interned eval
/// kernel (violations/eval_kernel.h) it is the oracle for: the body of
/// `dc` on materialized Facts, `assignment[i]` instantiating t_i, with
/// plain Value comparisons (no pool, no class ids). True means the
/// assignment witnesses a violation.
bool BodyHolds(const DenialConstraint& dc,
               const std::vector<const Fact*>& assignment);

/// The binary case of BodyHolds: t0 instantiates t_0, t1 instantiates t_1.
bool BodyHolds(const DenialConstraint& dc, const Fact& t0, const Fact& t1);

/// Whether every variable of `dc` ranges over f's relation and the body
/// holds with all of them bound to `f` — f is self-inconsistent.
bool MakesSelfInconsistent(const DenialConstraint& dc, const Fact& f);

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
/// constraint on materialized Facts with the BodyHolds /
/// MakesSelfInconsistent above (no eval kernel, no blocking, no pool
/// class ids), then keeps the supports with no inconsistent proper subset.
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

/// Schema with two relations R(A,B,C,D) and S(A,B,C,D), for the
/// order-predicate fuzz (cross-relation constraints need the second).
std::shared_ptr<const Schema> MakeRsSchema();

/// A random database over every relation of `schema`, `facts_per_relation`
/// facts each, with tie-heavy mixed-kind cells: null, ints and doubles in
/// [0, domain) (doubles are often whole, so 2 and 2.0 collide) and
/// single-letter strings.
Database MakeMixedDatabase(std::shared_ptr<const Schema> schema,
                           size_t facts_per_relation, int64_t domain,
                           uint64_t seed);

/// A random database like MakeMixedDatabase's (nulls, ints and whole
/// doubles, so 2 and 2.0 share a class), but each column draws from its
/// own random shape, so blocking buckets see every class layout the `!=`
/// split distinguishes: a strict majority class, two tied classes, many
/// small classes, a single class, mostly nulls, or a range shifted per
/// relation and attribute (a probe class often absent from the bucket).
Database MakeSkewedDatabase(std::shared_ptr<const Schema> schema,
                            size_t facts_per_relation, uint64_t seed);

/// R and S of MakeRsSchema with their equality key A blocking them into
/// every bucket shape bucket-major detection treats apart, each multi-fact
/// bucket `scale` facts: a one-fact bucket, one whose B is one class, one
/// with a majority B class, one whose B values are all distinct, and one of
/// a few B classes holding facts that BucketShapeDcs' unary constraint
/// makes self-inconsistent (C > D there only); R also has a key absent
/// from S. C and D draw from a tiny domain, so `<=`/`>=` tie constantly,
/// and B meets C's domain in every bucket but the all-distinct one.
Database MakeBucketShapesDatabase(std::shared_ptr<const Schema> schema,
                                  size_t scale, uint64_t seed);

/// The constraints over MakeBucketShapesDatabase, on R unless named: the
/// FD A -> B (a symmetric body whose `!=` split is on the probe's own
/// attribute), `t.A = t'.A & t.B != t'.C & t.C != t'.B` (symmetric, but
/// probe and partner `!=` attributes differ), the cross-relation FD
/// R.A -> S.B, `t.A = t'.A & t.B != t'.B & t.C <= t'.C & t.D >= t'.D`
/// (not symmetric, but ties fire both orientations of a pair), the FD
/// A -> C on S, and the unary `!(t.C > t.D)`.
std::vector<DenialConstraint> BucketShapeDcs(const Schema& schema);

/// A random binary DC over relations (r0, r1) with `num_order` cross-
/// variable order predicates (every operator, either operand orientation,
/// any attribute pair), mixed at random with a cross equality key, a `!=`,
/// a constant comparison and a same-variable comparison, in shuffled body
/// order.
DenialConstraint RandomOrderDc(Rng& rng, const Schema& schema, RelationId r0,
                               RelationId r1, size_t num_order);

/// A random binary DC over relations (r0, r1) with `num_ne` cross-variable
/// `!=` predicates (same- or cross-attribute, either operand orientation)
/// and, with `with_order`, one cross order predicate, mixed at random with
/// a cross equality key, a constant comparison and a same-variable
/// comparison, in shuffled body order.
DenialConstraint RandomNeDc(Rng& rng, const Schema& schema, RelationId r0,
                            RelationId r1, size_t num_ne, bool with_order);

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
