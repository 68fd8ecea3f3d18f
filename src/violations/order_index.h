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

/// Output-sensitive partner lookup for the batch detector's binary probe
/// (IEJoin-style; Khayyat et al., VLDB 2015). Inside one blocking bucket,
/// the partner rows of a binary DC are indexed on its leading cross-
/// variable order predicates, so a probe row enumerates only the partners
/// that satisfy them — O(log^2 n + k) per probe row instead of a scan of
/// the whole bucket. Every reported pair is still re-checked against the
/// full body by the caller; the index only decides which pairs to look at,
/// and it never drops a pair whose order predicates hold.

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
class OrderRanks {
 public:
  OrderRanks(const DenialConstraint& dc, const ValuePool& pool,
             const Database::RelationBlock& r0,
             const Database::RelationBlock& r1);

  /// Indexed order predicates: 0 (the bucket is scanned pairwise), 1 or 2.
  size_t num_keys() const { return keys_.size(); }
  /// Operator of key `k`, oriented `probe op partner`.
  CompareOp op(size_t k) const { return keys_[k].op; }
  uint32_t probe(size_t k, uint32_t row) const {
    return keys_[k].probe_ranks[row];
  }
  uint32_t partner(size_t k, uint32_t row) const {
    return keys_[k].partner_ranks[row];
  }

 private:
  struct Key {
    CompareOp op;
    std::vector<uint32_t> probe_ranks;    // [r0 row]
    std::vector<uint32_t> partner_ranks;  // [r1 row]
  };
  std::vector<Key> keys_;
};

/// One blocking bucket's partner rows, indexed for the probe. Rows are
/// appended in ascending order while the bucket is built; Build() then
/// sorts them on the first order key and, with a second key, lays a
/// merge-sort tree over that order: level L holds every aligned block of
/// 2^L positions sorted by the second key. A probe's first-key range splits
/// into O(log n) aligned blocks, and in each block the second-key matches
/// are one binary-searched run. Read-only after Build(), so probe shards
/// share it freely.
class OrderIndex {
 public:
  /// The partner rows, ascending. Append-only before Build().
  std::vector<uint32_t>& rows() { return rows_; }

  void Build(const OrderRanks& ranks);

  /// Calls `fn(j)` for every partner row j whose indexed order keys hold
  /// against probe row `probe_row`, in ascending j — the bucket order a
  /// pairwise scan would visit. `scratch` is caller-owned buffer space.
  /// `fn` returning false stops the walk; returns false when stopped.
  template <typename Fn>
  bool ForEachPartner(const OrderRanks& ranks, uint32_t probe_row,
                      std::vector<uint32_t>& scratch, Fn&& fn) const {
    if (ranks.num_keys() == 0) {
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

  // Built only under order keys, so a pairwise-scanned bucket (an FD's)
  // costs no more than its row list.
  struct Sorted {
    std::vector<uint32_t> first_keys;  // first-key ranks, aligned with rows_
    std::vector<Level> levels;         // second key only
  };

  std::vector<uint32_t> rows_;  // sorted on the first key after Build
  std::unique_ptr<Sorted> sorted_;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_ORDER_INDEX_H_
