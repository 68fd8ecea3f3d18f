#ifndef DBIM_VIOLATIONS_EVAL_KERNEL_H_
#define DBIM_VIOLATIONS_EVAL_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/parallel.h"
#include "common/value_pool.h"
#include "constraints/dc.h"
#include "relational/database.h"

namespace dbim {

/// The constraint-evaluation kernel shared by the batch ViolationDetector
/// and the IncrementalViolationIndex: predicate evaluation, blocking-key
/// buckets and witness enumeration, all expressed over interned `ValueId`
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

/// A read-only view of one bucket's facts, in insertion order. Valid
/// until the next Add, Remove or Build of its KeyBuckets.
struct FactSpan {
  const FactId* data = nullptr;
  uint32_t size = 0;

  const FactId* begin() const { return data; }
  const FactId* end() const { return data + size; }
  bool empty() const { return size == 0; }
  FactId front() const { return data[0]; }
  FactId operator[](size_t i) const { return data[i]; }
};

/// Equality-key buckets: the live facts of `relation()` keyed by the class
/// ids their `attrs()` cells hold. Class ids are exact (equal iff the
/// values are equal, across relations too, and 1 equals 1.0), so a bucket
/// holds exactly the facts whose key values are equal, with no hash
/// collisions. Buckets have dense ids below bucket_bound(); an empty one is
/// free and reused by the next new key. A flat open-addressing table finds
/// a key's bucket, a one-fact bucket holds its fact inline, and a larger
/// one holds a vector of its facts in insertion order (Remove preserves
/// it), so probes stay deterministic. With no attrs every fact shares one
/// bucket. Keys belong to one pool generation: after a vacuum re-interns
/// the database the owner rebuilds the buckets. Only the WitnessIndex
/// (violations/witness_index.h) owns KeyBuckets: its bucket groups serve
/// batch detection, Apply's probes, the k-ary anchored enumeration and the
/// sampling estimators' neighborhood probe alike.
class KeyBuckets {
 public:
  static constexpr uint32_t kNone = UINT32_MAX;

  KeyBuckets(RelationId relation, std::vector<AttrIndex> attrs)
      : relation_(relation), attrs_(std::move(attrs)) {}

  RelationId relation() const { return relation_; }
  const std::vector<AttrIndex>& attrs() const { return attrs_; }

  /// Replaces the contents with the rows of `block`: one stable radix sort
  /// of the rows on their key classes, O(rows) per class digit, lays every
  /// bucket out at its exact size in row order, with bucket ids ascending
  /// in key order. With `bucket_of_row`, also records each row's bucket.
  void Build(const Database::RelationBlock& block,
             std::vector<uint32_t>* bucket_of_row = nullptr);

  /// The bucket whose key is the classes `row` holds at `row_attrs` (as
  /// many as attrs(): a partner side's key attributes), or kNone.
  uint32_t Find(const RowRef& row,
                const std::vector<AttrIndex>& row_attrs) const;
  uint32_t Find(const RowRef& row) const { return Find(row, attrs_); }
  /// The bucket of the key `key` (attrs().size() class ids), or kNone.
  uint32_t FindKey(const ValueId* key) const;

  FactSpan facts(uint32_t b) const {
    const Bucket& bucket = buckets_[b];
    return {bucket.size == 1 ? &bucket.one : bucket.many.data(), bucket.size};
  }
  /// Bucket b's key: attrs().size() class ids.
  const ValueId* key(uint32_t b) const {
    return keys_.data() + size_t{b} * attrs_.size();
  }
  uint32_t bucket_bound() const {
    return static_cast<uint32_t>(buckets_.size());
  }
  /// Non-empty buckets.
  size_t num_keys() const { return num_keys_; }

  /// Appends the fact of `row` to its key's bucket, opening the bucket if
  /// the key is new; returns the bucket.
  uint32_t Add(const RowRef& row);
  /// Removes the fact of `row` from its bucket; returns the bucket, free
  /// if it emptied. Must run before the fact's cells change: the key is
  /// read from them.
  uint32_t Remove(const RowRef& row);

 private:
  struct Bucket {
    uint32_t size = 0;
    FactId one = 0;             // size == 1
    std::vector<FactId> many;   // size >= 2
  };

  // The first slot on the linear probe sequence of the key whose i-th
  // class is key_at(i) that `stop` accepts; the table is at most half
  // full, so every sequence ends.
  template <typename KeyAt, typename Stop>
  size_t Probe(const KeyAt& key_at, const Stop& stop) const;
  template <typename KeyAt>
  uint32_t Lookup(const KeyAt& key_at) const;
  auto KeyOf(uint32_t b) const {
    return [k = key(b)](size_t i) { return k[i]; };
  }
  // A table of at least twice `keys` slots, holding every non-empty bucket.
  void Rehash(size_t keys);

  RelationId relation_;
  std::vector<AttrIndex> attrs_;
  std::vector<Bucket> buckets_;
  std::vector<ValueId> keys_;        // bucket b's key at b * attrs_.size()
  std::vector<uint32_t> table_;      // bucket ids, kNone where free
  std::vector<uint32_t> free_ids_;   // empty buckets
  size_t num_keys_ = 0;
};

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
