#ifndef DBIM_VIOLATIONS_EVAL_KERNEL_H_
#define DBIM_VIOLATIONS_EVAL_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/parallel.h"
#include "common/value_pool.h"
#include "constraints/dc.h"
#include "relational/database.h"

namespace dbim {

/// The constraint-evaluation kernel shared by the batch ViolationDetector
/// and the IncrementalViolationIndex: predicate evaluation, blocking-key
/// hashing and witness enumeration, all expressed over interned `ValueId`
/// columns. Every witness either evaluator ever reports flows through this
/// one core, which is what keeps batch detection, per-fact incremental
/// probes and anchored k-ary re-enumeration bit-for-bit consistent.
///
/// The kernel never materializes a row-major `Fact`: tuple-variable
/// bindings are (relation block, row) pairs, equality-type predicates
/// resolve on semantic class ids (equal class iff equal value), and
/// ordered predicates read the pool's canonical values — an array index,
/// no hashing, semantically equal to the cell's exact value so the total
/// order is unaffected.

/// A tuple-variable binding: one row of one relation's column block.
struct RowRef {
  const Database::RelationBlock* block = nullptr;
  uint32_t row = 0;

  ValueId class_at(AttrIndex attr) const {
    return block->class_columns[attr][row];
  }
  FactId fact_id() const { return block->row_ids[row]; }
};

/// The binding of a live fact: looks up the fact's current (block, row)
/// position. Row positions move on Delete (swap-removal), so bindings are
/// taken fresh per probe, never cached across operations.
inline RowRef BindFact(const Database& db, FactId id) {
  const Database::RowLocation loc = db.Locate(id);
  return RowRef{&db.relation_block(loc.relation), loc.row};
}

/// Per-predicate plan, resolved once per (constraint, pool): equality-type
/// comparisons against a constant are pre-interned into the pool's class
/// space so the per-row check is an integer compare (or a foregone
/// conclusion when no value in the pool equals the constant).
struct PredicatePlan {
  bool const_eq = false;  // rhs is a constant and op is kEq/kNe
  bool const_present = false;
  ValueId const_class = 0;
};

/// A denial constraint compiled against one value pool. Cheap to build
/// (one FindClass per constant predicate); rebuilt rather than cached when
/// the pool can change underneath (e.g. across a session vacuum's
/// re-intern, which reassigns every class id).
class DcEval {
 public:
  DcEval() = default;

  DcEval(const DenialConstraint& dc, const ValuePool& pool)
      : dc_(&dc), pool_(&pool), plan_(dc.predicates().size()) {
    for (size_t i = 0; i < dc.predicates().size(); ++i) {
      const Predicate& p = dc.predicates()[i];
      if (!p.rhs_is_constant()) continue;
      if (p.op() != CompareOp::kEq && p.op() != CompareOp::kNe) continue;
      plan_[i].const_eq = true;
      const std::optional<ValueId> cls = pool.FindClass(p.rhs_constant());
      plan_[i].const_present = cls.has_value();
      if (cls.has_value()) plan_[i].const_class = *cls;
    }
  }

  const DenialConstraint& dc() const { return *dc_; }

  /// Evaluates predicate `pi` on interned rows. Equality-type operators
  /// resolve with integer compares and never touch a Value; ordered
  /// operators short-circuit on equal classes and otherwise compare the
  /// pool's canonical values.
  bool EvalPredicate(size_t pi, const RowRef* assignment) const {
    const Predicate& p = dc_->predicates()[pi];
    const ValueId lhs = assignment[p.lhs().var].class_at(p.lhs().attr);
    if (p.rhs_is_constant()) {
      const PredicatePlan& plan = plan_[pi];
      if (plan.const_eq) {
        if (!plan.const_present) return p.op() == CompareOp::kNe;
        const bool equal = lhs == plan.const_class;
        return p.op() == CompareOp::kEq ? equal : !equal;
      }
      return EvalCompare(p.op(), pool_->value(lhs), p.rhs_constant());
    }
    const ValueId rhs =
        assignment[p.rhs_operand().var].class_at(p.rhs_operand().attr);
    const bool same_class = lhs == rhs;
    switch (p.op()) {
      case CompareOp::kEq:
        return same_class;
      case CompareOp::kNe:
        return !same_class;
      case CompareOp::kLe:
      case CompareOp::kGe:
        if (same_class) return true;
        break;
      case CompareOp::kLt:
      case CompareOp::kGt:
        if (same_class) return false;
        break;
    }
    return EvalCompare(p.op(), pool_->value(lhs), pool_->value(rhs));
  }

  /// The whole (conjunctive) body on a full assignment.
  bool BodyHolds(const RowRef* assignment) const {
    for (size_t i = 0; i < dc_->predicates().size(); ++i) {
      if (!EvalPredicate(i, assignment)) return false;
    }
    return true;
  }

  /// Predicates whose deepest variable is `var` must hold for a partial
  /// assignment bound through `var` to remain viable — the enumeration's
  /// per-level pruning check.
  bool ViableAt(size_t var, const RowRef* assignment) const {
    for (size_t i = 0; i < dc_->predicates().size(); ++i) {
      if (dc_->predicates()[i].MaxVar() != var) continue;
      if (!EvalPredicate(i, assignment)) return false;
    }
    return true;
  }

 private:
  const DenialConstraint* dc_ = nullptr;
  const ValuePool* pool_ = nullptr;
  std::vector<PredicatePlan> plan_;
};

/// K-ary (k >= 3) support-set enumeration over interned columns: the
/// outermost variable ranges over rows [range.begin, range.end) of its
/// relation; inner variables range over their full relations, allowing
/// repeated facts across variables. Candidate supports (sorted,
/// deduplicated fact ids, in the sequential enumeration's discovery order)
/// go to `emit`; candidates are minimality-filtered by the caller.
template <typename Emit>
void EnumerateKAry(const DcEval& eval, const Database& db, IndexRange range,
                   Emit&& emit) {
  const DenialConstraint& dc = eval.dc();
  const size_t k = dc.num_vars();
  std::vector<const Database::RelationBlock*> rels(k);
  for (uint32_t v = 0; v < k; ++v) {
    rels[v] = &db.relation_block(dc.var_relation(v));
  }
  std::vector<RowRef> assignment(k);
  std::vector<FactId> chosen(k, 0);

  // Recursion over variables 1..k-1.
  auto recurse = [&](auto&& self, size_t var) -> void {
    if (var == k) {
      if (!eval.BodyHolds(assignment.data())) return;
      std::vector<FactId> support = chosen;
      std::sort(support.begin(), support.end());
      support.erase(std::unique(support.begin(), support.end()),
                    support.end());
      emit(std::move(support));
      return;
    }
    const Database::RelationBlock& rel = *rels[var];
    for (uint32_t i = 0; i < rel.num_rows(); ++i) {
      assignment[var] = RowRef{&rel, i};
      chosen[var] = rel.row_ids[i];
      if (!eval.ViableAt(var, assignment.data())) continue;
      self(self, var + 1);
    }
  };

  const Database::RelationBlock& outer = *rels[0];
  for (uint32_t i = static_cast<uint32_t>(range.begin);
       i < static_cast<uint32_t>(range.end); ++i) {
    assignment[0] = RowRef{&outer, i};
    chosen[0] = outer.row_ids[i];
    if (!eval.ViableAt(0, assignment.data())) continue;
    recurse(recurse, 1);
  }
}

/// FNV-1a over the pool's semantic *value* hashes of `attrs` of one row:
/// the blocking-key hash of every bucket. The hash is a function of the
/// Value, not the id, so it is stable across a shared-pool re-intern, and
/// ids of one semantic class hash alike, so binding the class column (as
/// RowRef does) and binding the exact column agree.
inline uint64_t HashPoolValues(const ValuePool& pool, const RowRef& r,
                               const std::vector<AttrIndex>& attrs) {
  uint64_t h = 1469598103934665603ull;
  for (const AttrIndex a : attrs) {
    h ^= static_cast<uint64_t>(pool.hash(r.class_at(a)));
    h *= 1099511628211ull;
  }
  return h;
}

/// Persistent equality-key buckets: the live facts of `relation` keyed by
/// the HashPoolValues hash of their `attrs` cells. Keys hash semantic
/// values, so the buckets survive a shared-pool vacuum/re-intern; bucket
/// order is insertion order (Remove preserves it), so probes stay
/// deterministic. With no attrs every fact shares one bucket. The one
/// bucket type behind the witness index's bucket groups (detector and
/// incremental index alike), KAryBlockingIndex and the sampling
/// estimators' neighborhood probe.
struct KeyBuckets {
  RelationId relation = 0;
  std::vector<AttrIndex> attrs;
  std::unordered_map<uint64_t, std::vector<FactId>> buckets;

  uint64_t Hash(const ValuePool& pool, const RowRef& row) const {
    return HashPoolValues(pool, row, attrs);
  }
  /// Facts whose key tuple hashes to `hash`; nullptr when none. Collisions
  /// are possible — callers re-check the body's equality predicates, as
  /// everywhere else in the kernel.
  const std::vector<FactId>* Find(uint64_t hash) const {
    const auto it = buckets.find(hash);
    return it == buckets.end() ? nullptr : &it->second;
  }
  void Add(const ValuePool& pool, const RowRef& row) {
    Add(Hash(pool, row), row.fact_id());
  }
  /// Adds `id` under its key hash `hash`; returns its bucket.
  const std::vector<FactId>& Add(uint64_t hash, FactId id) {
    std::vector<FactId>& bucket = buckets[hash];
    bucket.push_back(id);
    return bucket;
  }
  /// Must run before the fact's cells change: the key is recomputed from
  /// them.
  void Remove(const ValuePool& pool, const RowRef& row) {
    Remove(Hash(pool, row), row.fact_id());
  }
  /// Removes `id` from under its key hash `hash`; returns what is left of
  /// its bucket, nullptr when nothing is (the bucket is then erased).
  const std::vector<FactId>* Remove(uint64_t hash, FactId id);
  size_t num_keys() const { return buckets.size(); }
};

/// Equality-key buckets for anchored probes of one k-ary (>= 3 variable)
/// constraint. For every ordered variable pair (u, v) with a non-empty
/// PairBlockingKeys, the facts of var_relation(v) are bucketed by their
/// v-side key attributes, so an anchored enumeration that has already
/// bound t_u enumerates t_v's matching bucket instead of the full
/// relation. Distinct pairs whose (relation, v-side attribute list)
/// coincide share one bucket group — a chain constraint's (0,1)/(1,0)
/// pairs cost one map, not two. A constraint without cross-variable
/// equalities gets an index with no groups, under which the anchored
/// enumeration scans every variable's relation.
class KAryBlockingIndex {
 public:
  explicit KAryBlockingIndex(const DenialConstraint& dc);

  /// Enters/removes `id` in every bucket group over its relation. Remove
  /// must run before the fact's values change (the key is recomputed from
  /// the current cells) — the incremental index's bucket discipline.
  void Add(const Database& db, FactId id);
  void Remove(const Database& db, FactId id);

  /// Bucket-group index for enumerating variable `v` against the already
  /// bound variable `u`; negative when the pair carries no equality key.
  int group_of(size_t v, size_t u) const { return group_of_[v * k_ + u]; }
  const PairBlockingKeys& pair_keys(size_t v, size_t u) const {
    return pair_keys_[v * k_ + u];
  }
  const KeyBuckets& group(int g) const { return groups_[g]; }

  size_t num_groups() const { return groups_.size(); }
  /// Live bucket keys across all groups — the k-ary analogue of the
  /// binary watcher count surfaced by the stats API.
  size_t num_bucket_keys() const;

 private:
  size_t k_;
  std::vector<PairBlockingKeys> pair_keys_;  // [v * k_ + u]
  std::vector<int> group_of_;                // [v * k_ + u] -> group or -1
  std::vector<KeyBuckets> groups_;
};

/// Anchored k-ary enumeration: every satisfying assignment whose support
/// contains the fact `anchor`, each assignment exactly once — the anchor
/// occupies the first variable position bound to it, so earlier positions
/// exclude the anchor and later positions may rebind it. This is the
/// incremental-maintenance mode: after an insert or update of `anchor`,
/// the witnesses flowing through it are exactly the minimal-subset
/// candidates that can have appeared. `emit` receives the sorted,
/// deduplicated support of each satisfying assignment (the same support
/// may be emitted several times — once per derivation — matching the
/// batch detector's per-assignment violation count); discovery order is
/// unspecified, the emission multiset is fixed.
///
/// Each inner variable with an equality key against an already-bound
/// variable enumerates its matching bucket of `index` instead of the full
/// relation, shrinking anchored neighborhoods from O(n^{k-1}) toward
/// O(bucket^{k-1}); a variable with no such key scans its relation.
/// Binding proceeds anchor-position-first so the changed fact's key values
/// prune every keyed variable; each predicate is evaluated exactly once,
/// at the step its last variable binds. `index` must be maintained against
/// precisely `db`'s live facts.
template <typename Emit>
void EnumerateKAryAnchored(const DcEval& eval, const Database& db,
                           FactId anchor, const KAryBlockingIndex& index,
                           Emit&& emit) {
  const DenialConstraint& dc = eval.dc();
  const size_t k = dc.num_vars();
  const Database::RowLocation anchor_loc = db.Locate(anchor);
  const ValuePool& pool = db.pool();
  const std::vector<Predicate>& preds = dc.predicates();
  std::vector<const Database::RelationBlock*> rels(k);
  for (uint32_t v = 0; v < k; ++v) {
    rels[v] = &db.relation_block(dc.var_relation(v));
  }
  std::vector<RowRef> assignment(k);
  std::vector<FactId> chosen(k, 0);
  std::vector<size_t> order(k);      // bind order: anchor_pos, then 0, 1, ...
  std::vector<size_t> bind_step(k);  // var -> its step in `order`
  std::vector<std::vector<size_t>> checkable(k);  // step -> predicate ids

  for (size_t anchor_pos = 0; anchor_pos < k; ++anchor_pos) {
    if (dc.var_relation(static_cast<uint32_t>(anchor_pos)) !=
        anchor_loc.relation) {
      continue;
    }
    order[0] = anchor_pos;
    for (size_t v = 0, s = 1; v < k; ++v) {
      if (v != anchor_pos) order[s++] = v;
    }
    for (size_t s = 0; s < k; ++s) bind_step[order[s]] = s;
    // A predicate becomes checkable at the step its last variable binds;
    // across all steps every predicate is checked exactly once.
    for (auto& ids : checkable) ids.clear();
    for (size_t i = 0; i < preds.size(); ++i) {
      size_t last = bind_step[preds[i].lhs().var];
      if (!preds[i].rhs_is_constant()) {
        last = std::max(last, bind_step[preds[i].rhs_operand().var]);
      }
      checkable[last].push_back(i);
    }

    auto viable = [&](size_t step) {
      for (const size_t pi : checkable[step]) {
        if (!eval.EvalPredicate(pi, assignment.data())) return false;
      }
      return true;
    };

    auto recurse = [&](auto&& self, size_t step) -> void {
      if (step == k) {
        std::vector<FactId> support = chosen;
        std::sort(support.begin(), support.end());
        support.erase(std::unique(support.begin(), support.end()),
                      support.end());
        emit(std::move(support));
        return;
      }
      const size_t var = order[step];
      if (step == 0) {
        assignment[var] = RowRef{rels[var], anchor_loc.row};
        chosen[var] = anchor;
        if (viable(0)) self(self, 1);
        return;
      }
      const Database::RelationBlock& rel = *rels[var];
      auto try_row = [&](uint32_t row) {
        // Before the anchor position the anchor itself is excluded, so an
        // assignment binding it at several positions is discovered only at
        // the earliest one.
        if (var < anchor_pos && rel.row_ids[row] == anchor) return;
        assignment[var] = RowRef{&rel, row};
        chosen[var] = rel.row_ids[row];
        if (viable(step)) self(self, step + 1);
      };
      // Prune through the first bound partner carrying an equality key:
      // only rows whose key tuple hashes like the partner's can satisfy
      // the body (the equality predicates re-checked by `viable` reject
      // hash collisions).
      for (size_t s = 0; s < step; ++s) {
        const size_t u = order[s];
        const int group = index.group_of(var, u);
        if (group < 0) continue;
        const uint64_t target = HashPoolValues(
            pool, assignment[u], index.pair_keys(var, u).u_attrs);
        const std::vector<FactId>* bucket = index.group(group).Find(target);
        if (bucket != nullptr) {
          for (const FactId id : *bucket) try_row(db.Locate(id).row);
        }
        return;
      }
      for (uint32_t i = 0; i < rel.num_rows(); ++i) try_row(i);
    };
    recurse(recurse, 0);
  }
}

/// Whether `id` is self-inconsistent under `eval`'s constraint: the body
/// holds with every tuple variable bound to the fact. False when the
/// constraint spans several relations or another relation than the
/// fact's.
bool MakesSelfInconsistentInterned(const DcEval& eval, const Database& db,
                                   FactId id);

/// Number of satisfying assignments of `eval`'s constraint whose support
/// is exactly the fact set `subset` (sorted, distinct): every mapping of
/// tuple variables onto the subset's facts that is surjective, relation-
/// compatible, and satisfies the body. This recovers the per-assignment
/// violation multiplicity the batch detector counts for a k-ary minimal
/// subset, in O(|subset|^k) integer-compare work.
uint32_t CountDerivations(const DcEval& eval, const Database& db,
                          const std::vector<FactId>& subset);

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_EVAL_KERNEL_H_
