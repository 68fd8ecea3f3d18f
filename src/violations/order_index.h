#ifndef DBIM_VIOLATIONS_ORDER_INDEX_H_
#define DBIM_VIOLATIONS_ORDER_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/value_pool.h"
#include "constraints/dc.h"
#include "constraints/predicate.h"
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
/// drops a pair whose indexed predicates hold. OrderRuns (below) answers
/// the same order query for the incremental index, kept up to date under
/// inserts and removals.

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

/// A merge-sort tree over keys[0, n) by position: level L holds every
/// aligned block of 2^L positions sorted by key (stably), each key with the
/// position it came from. A query's positions [lo, hi) split into
/// O(log n) aligned blocks, and in each block the keys in [a, b) are one
/// binary-searched run: O(log^2 n + k) per query. Both order indexes below
/// lay their second key out in one.
class SortTree {
 public:
  SortTree() = default;
  explicit SortTree(const std::vector<uint32_t>& keys);

  /// Calls `fn(position)` for every position in [lo, hi) whose key lies in
  /// [a, b). `fn` returning false stops the walk; returns false when
  /// stopped.
  template <typename Fn>
  bool ForEach(size_t lo, size_t hi, uint32_t a, uint32_t b, Fn&& fn) const {
    // Canonical decomposition: from `lo`, the widest aligned block that
    // fits before `hi`.
    while (lo < hi) {
      size_t level = FloorLog2(hi - lo);
      if (lo != 0) level = std::min<size_t>(level, __builtin_ctzll(lo));
      const size_t width = size_t{1} << level;
      const Level& lv = levels_[level];
      const auto block = lv.keys.begin() + lo;
      const auto from = std::lower_bound(block, block + width, a);
      const auto to = std::lower_bound(from, block + width, b);
      for (auto it = from; it != to; ++it) {
        if (!fn(lv.pos[it - lv.keys.begin()])) return false;
      }
      lo += width;
    }
    return true;
  }

  /// Test hook: whether this is the tree SortTree(keys) builds, up to the
  /// order of equal keys within a block.
  bool WellFormed(const std::vector<uint32_t>& keys) const;

 private:
  struct Level {
    std::vector<uint32_t> keys;
    std::vector<uint32_t> pos;  // aligned with keys
  };

  static size_t FloorLog2(size_t x) { return 63 - __builtin_clzll(x); }

  std::vector<Level> levels_;
};

/// The ranks q with `p op q`, as the interval [a, b), for an order
/// operator: a suffix for `<`/`<=`, a prefix for `>`/`>=`.
inline std::pair<uint32_t, uint32_t> RankInterval(CompareOp op, uint32_t p) {
  switch (op) {
    case CompareOp::kLt:
      return {p + 1, UINT32_MAX};
    case CompareOp::kLe:
      return {p, UINT32_MAX};
    case CompareOp::kGt:
      return {0, p};
    default:  // kGe; equality-type operators are never order keys
      return {0, p + 1};
  }
}

/// One blocking bucket's partner rows, indexed for the probe. Rows are
/// appended in ascending order while the bucket is built; Build() then
/// indexes them on the ranks' order keys or, without one, on the `!=`
/// classes.
///
/// Order keys: the rows are sorted on the first key and, with a second
/// key, a SortTree over their second keys is laid over that order, so a
/// probe's first-key range splits into O(log n) aligned blocks, and in
/// each block the second-key matches are one binary-searched run.
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
    const std::vector<uint32_t>& first = sorted_->first_keys;
    const auto [a, b] = RankInterval(ranks.op(0), ranks.probe(0, probe_row));
    const auto lo = std::lower_bound(first.begin(), first.end(), a);
    const auto hi = std::lower_bound(lo, first.end(), b);
    scratch.clear();
    if (ranks.num_keys() == 1) {
      scratch.assign(rows_.begin() + (lo - first.begin()),
                     rows_.begin() + (hi - first.begin()));
    } else {
      const auto [a1, b1] =
          RankInterval(ranks.op(1), ranks.probe(1, probe_row));
      sorted_->second.ForEach(lo - first.begin(), hi - first.begin(), a1, b1,
                              [&](uint32_t pos) {
                                scratch.push_back(rows_[pos]);
                                return true;
                              });
    }
    std::sort(scratch.begin(), scratch.end());
    for (const uint32_t j : scratch) {
      if (!fn(j)) return false;
    }
    return true;
  }

 private:
  // Built only under order keys, so a bucket without one (an FD's) costs
  // no more than its row list and its `!=` split.
  struct Sorted {
    std::vector<uint32_t> first_keys;  // first-key ranks, aligned with rows_
    SortTree second;                   // second-key ranks, by position
  };

  std::vector<uint32_t> rows_;  // sorted on the first key after Build
  std::unique_ptr<Sorted> sorted_;
  // `!=` split only: the majority candidate M, and the rows whose class is
  // not M, ascending.
  ValueId majority_ = 0;
  std::vector<uint32_t> others_;
};

/// The incremental index's updatable twin of OrderIndex: one bucket's
/// partner facts over one or two order keys, kept up to date under
/// inserts and removals by the logarithmic method (Bentley & Saxe,
/// *Decomposable Searching Problems I*, 1980). The facts sit in O(log n)
/// static runs of decreasing size. Each run is laid out as OrderIndex lays
/// out a whole bucket — entries sorted on the first key and, with a second
/// key, a merge-sort tree over that order — and is ranked over its own
/// distinct key values, so a probe binary-searches its values once per run
/// and key, then walks rank runs: O(log^3 n + k) per probe.
///
/// An insert merges the new entry with every trailing run no larger than
/// what joins it so far (a binary counter's carry), in one rebuild, so an
/// entry takes part in O(log n) rebuilds. A
/// removal only tombstones: an entry is live while its stamp equals its
/// fact's current stamp (the caller bumps a fact's stamp whenever it
/// leaves its buckets), and once the dead entries outnumber the live ones
/// the bucket rebuilds into one run, so tombstones never outnumber the
/// live entries a bucket stores.
///
/// Keys are class ids of one pool generation, ordered by OrderKeyLess;
/// after a vacuum re-interns the database the owner rebuilds the bucket.
/// A key value that OrderKeyLess cannot place (a NaN) sends its entry to
/// an unranked list that every probe walks, and a NaN probe value admits
/// every rank of its key, so the index never drops a partner whose
/// indexed predicates hold; the caller re-checks the full body.
class OrderRuns {
 public:
  struct Entry {
    FactId id = 0;
    uint32_t stamp = 0;
    ValueId key[2] = {0, 0};  // partner-side key classes
  };

  /// The probe side: key k holds when `*value[k] op[k] partner key k`.
  struct Probe {
    CompareOp op[2] = {CompareOp::kLt, CompareOp::kLt};
    const Value* value[2] = {nullptr, nullptr};
  };

  explicit OrderRuns(size_t num_keys = 1) : num_keys_(num_keys) {}

  /// Replaces the contents with `entries`, all live, as one run.
  void Assign(const ValuePool& pool, std::vector<Entry> entries);
  /// Adds a live entry (its stamp must be its fact's current stamp).
  void Insert(const ValuePool& pool, const std::vector<uint32_t>& stamps,
              const Entry& entry);
  /// Records that one live entry just died (its fact's stamp moved).
  void Tombstone(const ValuePool& pool, const std::vector<uint32_t>& stamps);

  size_t num_live() const { return live_; }

  /// Calls `fn(id)` for every live entry whose indexed keys hold against
  /// `probe`, each once, in a deterministic order.
  template <typename Fn>
  void ForEachPartner(const ValuePool& pool, const Probe& probe,
                      const std::vector<uint32_t>& stamps, Fn&& fn) const {
    auto visit = [&](const Entry& e) {
      if (stamps[e.id] == e.stamp) fn(e.id);
    };
    for (const Entry& e : unranked_) visit(e);
    for (const Run& run : runs_) {
      const auto [a, b] = RankRange(pool, run.bounds[0], probe.op[0],
                                    *probe.value[0]);
      const auto lo = std::lower_bound(run.rank0.begin(), run.rank0.end(), a);
      const auto hi = std::lower_bound(lo, run.rank0.end(), b);
      const size_t begin = lo - run.rank0.begin();
      const size_t end = hi - run.rank0.begin();
      if (num_keys_ == 1) {
        for (size_t i = begin; i < end; ++i) visit(run.entries[i]);
        continue;
      }
      const auto [a1, b1] = RankRange(pool, run.bounds[1], probe.op[1],
                                      *probe.value[1]);
      run.second.ForEach(begin, end, a1, b1, [&](uint32_t pos) {
        visit(run.entries[pos]);
        return true;
      });
    }
  }

  /// Calls `fn(entry)` for every stored entry, live or dead.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Entry& e : unranked_) fn(e);
    for (const Run& run : runs_) {
      for (const Entry& e : run.entries) fn(e);
    }
  }

  /// Test hook: whether the counters match the stamps, the tombstones are
  /// within their bound (dead <= live), and every run is well formed —
  /// entries sorted on their first-key rank, ranks naming their key's
  /// place among the run's distinct values, the second key's SortTree the
  /// one its ranks build, and only NaN-keyed entries unranked.
  bool WellFormed(const ValuePool& pool,
                  const std::vector<uint32_t>& stamps) const;

 private:
  struct Run {
    std::vector<Entry> entries;      // sorted on the first key's rank
    std::vector<uint32_t> rank0;     // aligned with entries
    std::vector<ValueId> bounds[2];  // one class per rank, ascending
    SortTree second;                 // second-key ranks, by position
  };
  // The ranks [a, b) of `bounds` whose values q satisfy `p op q`, or a
  // superset where OrderKeyLess cannot decide exactly (see .cc).
  static std::pair<uint32_t, uint32_t> RankRange(
      const ValuePool& pool, const std::vector<ValueId>& bounds, CompareOp op,
      const Value& p);

  bool Unranked(const ValuePool& pool, const Entry& e) const;
  Run BuildRun(const ValuePool& pool, std::vector<Entry> entries) const;
  // Moves the live entries of runs [from, end), with `live`, into one run.
  void MergeFrom(const ValuePool& pool, const std::vector<uint32_t>& stamps,
                 size_t from, std::vector<Entry> live);

  size_t num_keys_;
  std::vector<Run> runs_;        // sizes decreasing
  std::vector<Entry> unranked_;  // NaN-keyed entries, walked by every probe
  size_t live_ = 0;
  size_t dead_ = 0;
};

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_ORDER_INDEX_H_
