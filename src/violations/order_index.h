#ifndef DBIM_VIOLATIONS_ORDER_INDEX_H_
#define DBIM_VIOLATIONS_ORDER_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/value_pool.h"
#include "constraints/dc.h"
#include "relational/database.h"

namespace dbim {

/// Output-sensitive partner lookup for the batch detector's binary probe.
/// Inside one blocking bucket, the partner rows of a binary DC are indexed
/// so that a probe row enumerates (nearly) only the partners that satisfy
/// the DC's leading cross-variable predicates, instead of scanning the
/// whole bucket:
///  * order predicates (IEJoin-style; Khayyat et al., VLDB 2015): the rows
///    are sorted and laid out in a merge-sort tree, O(log^2 n + k) per
///    probe row;
///  * otherwise the first cross-variable `!=` (an FD's `t.B != t'.B`): the
///    rows split on their `!=` class's majority candidate, O(k) per probe
///    row (see OrderIndex).
/// Every reported pair is still re-checked against the full body by the
/// caller; the index only decides which pairs to look at, and it never
/// drops a pair whose indexed predicates hold.

/// Dense ranks for the leading (at most two) cross-variable order
/// predicates `t[A] op t'[B]` of a binary DC, oriented probe-first (t is
/// variable 0, the probe side; t' variable 1, the partner side). Each
/// predicate's ranks come from sorting the distinct class ids of both
/// compared columns with Value::operator<, one rank per class (equal
/// values share a class, so ties share a rank), so mixed kinds and
/// cross-attribute or cross-relation comparisons share one scale and
/// `t[A] op t'[B]` holds iff `rank(t[A]) op rank(t'[B])`.
///
/// A predicate whose columns are not strictly weakly ordered by
/// Value::operator< (a NaN, or an integer beyond 2^53 compared with a
/// double) cannot be ranked; it and every later one are dropped, and the
/// body re-check covers them.
///
/// With no ranked order key, the class columns of the DC's first cross-
/// variable `!=` predicate `t[A] != t'[B]` are recorded instead, oriented
/// probe-first: the kernel evaluates it as class inequality, so
/// `t[A] != t'[B]` holds iff `ne_probe(i) != ne_partner(j)`.
class OrderRanks {
 public:
  OrderRanks(const DenialConstraint& dc, const ValuePool& pool,
             const Database::RelationBlock& r0,
             const Database::RelationBlock& r1);

  /// Indexed order predicates: 0 (the bucket splits on the `!=` classes,
  /// or is walked whole without a `!=`), 1 or 2.
  size_t num_keys() const { return keys_.size(); }
  /// Operator of key `k`, oriented `probe op partner`.
  CompareOp op(size_t k) const { return keys_[k].op; }
  uint32_t probe(size_t k, uint32_t row) const {
    return keys_[k].probe_ranks[row];
  }
  uint32_t partner(size_t k, uint32_t row) const {
    return keys_[k].partner_ranks[row];
  }

  /// Whether the `!=` classes below are recorded (no order key and a
  /// cross-variable `!=`).
  bool has_ne() const { return ne_probe_ != nullptr; }
  ValueId ne_probe(uint32_t row) const { return (*ne_probe_)[row]; }
  ValueId ne_partner(uint32_t row) const { return (*ne_partner_)[row]; }

 private:
  struct Key {
    CompareOp op;
    std::vector<uint32_t> probe_ranks;    // [r0 row]
    std::vector<uint32_t> partner_ranks;  // [r1 row]
  };
  std::vector<Key> keys_;
  // The `!=` class columns, owned by the relation blocks.
  const std::vector<ValueId>* ne_probe_ = nullptr;    // [r0 row]
  const std::vector<ValueId>* ne_partner_ = nullptr;  // [r1 row]
};

/// One blocking bucket's partner rows, indexed for the probe. Rows are
/// appended in ascending order while the bucket is built; Build() then
/// indexes them on the ranks' order keys or, without one, on the `!=`
/// classes.
///
/// Order keys: the rows are sorted on the first key and, with a second
/// key, a merge-sort tree is laid over that order: level L holds every
/// aligned block of 2^L positions sorted by the second key. A probe's
/// first-key range splits into O(log n) aligned blocks, and in each block
/// the second-key matches are one binary-searched run.
///
/// `!=` split: a Boyer–Moore majority vote over the partner classes picks
/// a candidate class M, and `others` keeps the rows whose class is not M.
/// A probe row of class M walks `others` — exactly its `!=` partners. A
/// probe row of any other class c walks the bucket and skips class c;
/// since c != M, class c holds at most half the bucket (M is the majority
/// whenever one exists), so the walk is at most twice the partners it
/// yields. Either way a probe row costs O(its partners), not O(bucket).
///
/// Read-only after Build(), so concurrent probe ranges share it freely.
class OrderIndex {
 public:
  /// The partner rows, ascending. Append-only before Build().
  std::vector<uint32_t>& rows() { return rows_; }

  void Build(const OrderRanks& ranks);

  /// Calls `fn(j)` for every partner row j whose indexed order keys, or
  /// indexed `!=`, hold against probe row `probe_row` (every row when
  /// neither is indexed), in ascending j — the bucket order a pairwise
  /// scan would visit. `scratch` is caller-owned buffer space.
  /// `fn` returning false stops the walk; returns false when stopped.
  template <typename Fn>
  bool ForEachPartner(const OrderRanks& ranks, uint32_t probe_row,
                      std::vector<uint32_t>& scratch, Fn&& fn) const {
    if (ranks.num_keys() == 0) {
      if (ranks.has_ne()) {
        const ValueId c = ranks.ne_probe(probe_row);
        if (c == majority_) {
          for (const uint32_t j : others_) {
            if (!fn(j)) return false;
          }
          return true;
        }
        for (const uint32_t j : rows_) {
          if (ranks.ne_partner(j) == c) continue;
          if (!fn(j)) return false;
        }
        return true;
      }
      for (const uint32_t j : rows_) {
        if (!fn(j)) return false;
      }
      return true;
    }
    auto [lo, hi] = Matching(ranks.op(0), ranks.probe(0, probe_row),
                             sorted_->first_keys, 0, rows_.size());
    scratch.clear();
    if (ranks.num_keys() == 1) {
      scratch.assign(rows_.begin() + lo, rows_.begin() + hi);
    } else {
      const CompareOp op = ranks.op(1);
      const uint32_t p = ranks.probe(1, probe_row);
      // Canonical decomposition: from `lo`, the widest aligned block that
      // fits before `hi`.
      while (lo < hi) {
        size_t level = FloorLog2(hi - lo);
        if (lo != 0) level = std::min<size_t>(level, __builtin_ctzll(lo));
        const size_t width = size_t{1} << level;
        const Level& lv = sorted_->levels[level];
        const auto [a, b] = Matching(op, p, lv.keys, lo, lo + width);
        scratch.insert(scratch.end(), lv.rows.begin() + a,
                       lv.rows.begin() + b);
        lo += width;
      }
    }
    std::sort(scratch.begin(), scratch.end());
    for (const uint32_t j : scratch) {
      if (!fn(j)) return false;
    }
    return true;
  }

 private:
  struct Level {
    std::vector<uint32_t> keys;  // second-key ranks
    std::vector<uint32_t> rows;  // partner rows, aligned with keys
  };

  static size_t FloorLog2(size_t x) { return 63 - __builtin_clzll(x); }

  // The run of `keys[begin, end)` (ascending) holding partner ranks q with
  // `p op q`: a suffix for `<`/`<=`, a prefix for `>`/`>=`.
  static std::pair<size_t, size_t> Matching(CompareOp op, uint32_t p,
                                            const std::vector<uint32_t>& keys,
                                            size_t begin, size_t end) {
    const auto first = keys.begin() + begin;
    const auto last = keys.begin() + end;
    auto lower = [&] {
      return static_cast<size_t>(std::lower_bound(first, last, p) -
                                 keys.begin());
    };
    auto upper = [&] {
      return static_cast<size_t>(std::upper_bound(first, last, p) -
                                 keys.begin());
    };
    switch (op) {
      case CompareOp::kLt:
        return {upper(), end};
      case CompareOp::kLe:
        return {lower(), end};
      case CompareOp::kGt:
        return {begin, lower()};
      default:  // kGe; equality-type operators are never order keys
        return {begin, upper()};
    }
  }

  // Built only under order keys, so a bucket without one (an FD's) costs
  // no more than its row list and its `!=` split.
  struct Sorted {
    std::vector<uint32_t> first_keys;  // first-key ranks, aligned with rows_
    std::vector<Level> levels;         // second key only
  };

  std::vector<uint32_t> rows_;  // sorted on the first key after Build
  std::unique_ptr<Sorted> sorted_;
  // `!=` split only: the majority candidate M, and the rows whose class is
  // not M, ascending.
  ValueId majority_ = 0;
  std::vector<uint32_t> others_;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_ORDER_INDEX_H_
