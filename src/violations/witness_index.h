#ifndef DBIM_VIOLATIONS_WITNESS_INDEX_H_
#define DBIM_VIOLATIONS_WITNESS_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/value_pool.h"
#include "constraints/dc.h"
#include "constraints/predicate.h"
#include "relational/database.h"
#include "violations/eval_kernel.h"

namespace dbim {

/// The witness index of a constraint set's binary constraints: blocking
/// buckets keyed on each constraint's equality key and, inside each
/// bucket, a partner index, so that a probe fact enumerates only the
/// partners that satisfy the constraint's indexed predicates instead of
/// scanning its bucket:
///  * order predicates: the first two cross-variable ones, as a dominance
///    query over OrderRuns, O(log^2 n + k) per probe;
///  * otherwise the first cross-variable `!=` (an FD's `t.B != t'.B`): the
///    bucket sorted by the partner's `!=` class (ClassSplit), O(log n + k)
///    per probe, or O(1 + k) per bucket for a body symmetric in t and t'
///    whose probe and partner `!=` attribute coincide (every FD), which
///    walks the bucket's cross-class pairs (PairSplits).
/// The batch detector bulk-builds it and probes it read-only; the
/// incremental index builds it once the same way and keeps it up to date
/// under Apply; the sampling estimators build one per evaluation and
/// collect a sampled fact's partners through it. It is the only owner of
/// key buckets: the k-ary constraints' anchored enumeration
/// (EnumerateKAryAnchored, at the end of this file) reads the same bucket
/// groups, planned per variable pair. Every bulk step is a stable radix
/// sort on dense class ids (common/radix_sort.h), O(n) per 8-bit digit the
/// ids span, or runs in O(n): a group's buckets sort its rows on their key
/// classes; a `!=` index sorts its group's multi-fact bucket members on
/// their class once and deals them out to the buckets; an order run sorts
/// its positions on each key's class, then its distinct classes by value
/// (see OrderRuns), and its MinMaxTable takes O(n log n). Every reported
/// partner is still re-checked against the full body by the caller; the
/// index only decides which facts to look at, and it never drops one
/// whose indexed predicates hold.

/// Three-sided range reporting over keys[0, n) by position: the positions
/// in [lo, hi) whose key lies below a bound, or at or above one. Range-
/// minimum and range-maximum sparse tables find the extreme key of any
/// position range in O(1); a query reports that extreme if it qualifies
/// and goes on into both sides of it, or stops: O(1 + k) per query, with
/// an explicit stack of at most log2 n ranges. O(n log n) to build and to
/// store. OrderRuns lays the second key of each of its runs out in one:
/// a probe's rank range of that key is always a prefix or a suffix of its
/// ranks (see OrderRuns::RankRange), so one side of it is open.
class MinMaxTable {
 public:
  MinMaxTable() = default;
  explicit MinMaxTable(std::vector<uint32_t> keys);

  /// Calls `fn(position)` for every position in [lo, hi) whose key is
  /// below `bound`, in a deterministic order.
  template <typename Fn>
  void ForEachBelow(size_t lo, size_t hi, uint32_t bound, Fn&& fn) const {
    Report<false>(lo, hi, bound, fn);
  }
  /// Calls `fn(position)` for every position in [lo, hi) whose key is at
  /// least `bound`, in a deterministic order.
  template <typename Fn>
  void ForEachAtLeast(size_t lo, size_t hi, uint32_t bound, Fn&& fn) const {
    Report<true>(lo, hi, bound, fn);
  }

  /// Test hook: whether this is the table MinMaxTable(keys) builds, up to
  /// which of several equal extremes a window names.
  bool WellFormed(const std::vector<uint32_t>& keys) const;

 private:
  static size_t FloorLog2(size_t x) { return 63 - __builtin_clzll(x); }

  // The position of the minimum (kMax: maximum) key in [lo, hi), lo < hi:
  // the better of the two windows of width 2^level that cover the range.
  template <bool kMax>
  uint32_t Extreme(size_t lo, size_t hi) const {
    if (hi - lo == 1) return static_cast<uint32_t>(lo);
    const size_t level = FloorLog2(hi - lo);
    const uint32_t* table = (kMax ? max_ : min_).data() + Offset(level);
    const uint32_t a = table[lo];
    const uint32_t b = table[hi - (size_t{1} << level)];
    return (kMax ? keys_[b] > keys_[a] : keys_[b] < keys_[a]) ? b : a;
  }

  template <bool kMax, typename Fn>
  void Report(size_t lo, size_t hi, uint32_t bound, Fn& fn) const {
    // Every range taken either reports its extreme and splits around it or
    // ends the branch: 2k + 1 ranges for k reports. Going on into the
    // smaller side while stacking the larger at least halves the range per
    // stacked entry, so the stack never holds more than log2 n + 1.
    std::pair<size_t, size_t> stack[65];
    size_t depth = 0;
    for (;;) {
      if (lo < hi) {
        const uint32_t m = Extreme<kMax>(lo, hi);
        if (kMax ? keys_[m] >= bound : keys_[m] < bound) {
          fn(m);
          if (m - lo < hi - m - 1) {
            stack[depth++] = {m + 1, hi};
            hi = m;
          } else {
            stack[depth++] = {lo, m};
            lo = m + 1;
          }
          continue;
        }
      }
      if (depth == 0) return;
      std::tie(lo, hi) = stack[--depth];
    }
  }

  // Where level L >= 1 starts in min_ and max_: after the n - 2^l + 1
  // windows of every level l < L.
  size_t Offset(size_t level) const {
    return (level - 1) * (keys_.size() + 1) - ((size_t{1} << level) - 2);
  }

  std::vector<uint32_t> keys_;
  // min_[Offset(L) + i] (max_ alike): the position of the least (greatest)
  // key in [i, i + 2^L), for every L >= 1 with 2^L <= n, level after level.
  std::vector<uint32_t> min_;
  std::vector<uint32_t> max_;
};

/// One bucket's partner facts over one or two order keys (IEJoin-style;
/// Khayyat et al., VLDB 2015), kept up to date under inserts and removals
/// by the logarithmic method (Bentley & Saxe, *Decomposable Searching
/// Problems I*, 1980). The facts sit in O(log n) static runs of decreasing
/// size. Each run holds its entries sorted on the first key and, with a
/// second key, a MinMaxTable over that order, and is ranked over its own
/// distinct key values, so a probe binary-searches its values once per run
/// and key, O(log n), and then reports its partners of the run in O(1 + k)
/// (a rank prefix or suffix of the first key is one stretch of positions;
/// one of the second key is a three-sided query on it): O(log^2 n + k) per
/// probe. A run of n entries builds in O(n log n): per key, one stable
/// radix sort of its positions on their class and one sort of its d
/// distinct classes by value (a radix sort on their doubles when no
/// string is among them, else O(d log d) comparisons), then a counting
/// sort on the first key's rank and the MinMaxTable. A bulk build assigns
/// a whole bucket as one run.
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

  /// The probe side: key k holds when `value[k] op[k] partner key k`,
  /// value[k] a class id.
  struct Probe {
    CompareOp op[2] = {CompareOp::kLt, CompareOp::kLt};
    ValueId value[2] = {0, 0};
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
      const auto [a, b] =
          RankRange(pool, run.bounds[0], probe.op[0], probe.value[0]);
      const size_t begin = run.rank_starts[a];
      const size_t end = run.rank_starts[b];
      if (num_keys_ == 1) {
        for (size_t i = begin; i < end; ++i) visit(run.entries[i]);
        continue;
      }
      const auto [a1, b1] =
          RankRange(pool, run.bounds[1], probe.op[1], probe.value[1]);
      auto visit_at = [&](uint32_t pos) { visit(run.entries[pos]); };
      if (a1 > 0) {
        run.second.ForEachAtLeast(begin, end, a1, visit_at);
      } else if (b1 < run.bounds[1].size()) {
        run.second.ForEachBelow(begin, end, b1, visit_at);
      } else {
        for (size_t i = begin; i < end; ++i) visit_at(i);
      }
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
  /// place among the run's distinct values, the second key's MinMaxTable
  /// the one its ranks build, and only NaN-keyed entries unranked.
  bool WellFormed(const ValuePool& pool,
                  const std::vector<uint32_t>& stamps) const;

 private:
  // A key class as OrderKeyLess orders it: its kind's rank, then its
  // number (an integer through its double) or its string, which alone is
  // read from the pool.
  struct Bound {
    double number = 0;
    ValueId id = 0;
    int rank = 0;
  };
  struct Run {
    std::vector<Entry> entries;    // sorted on the first key's rank
    // rank_starts[r]: the first entry of first-key rank r or above; one
    // past the last rank, the number of entries.
    std::vector<uint32_t> rank_starts;
    std::vector<Bound> bounds[2];  // one class per rank, ascending
    MinMaxTable second;            // second-key ranks, by position
  };
  static Bound BoundOf(const ValuePool& pool, ValueId id);
  // OrderKeyLess on bounds.
  static bool Less(const ValuePool& pool, const Bound& a, const Bound& b);
  // The ranks [a, b) of `bounds` whose values q satisfy `p op q` for the
  // class p, or a superset where OrderKeyLess cannot decide exactly (see
  // .cc). Always a prefix (a == 0) or a suffix (b == bounds.size()).
  static std::pair<uint32_t, uint32_t> RankRange(
      const ValuePool& pool, const std::vector<Bound>& bounds, CompareOp op,
      ValueId p);

  bool Unranked(const ValuePool& pool, const Entry& e) const;
  // The run of `entries`, or an empty one if a key of theirs is a NaN.
  Run BuildRun(const ValuePool& pool, const std::vector<Entry>& entries) const;
  // Moves the live entries of runs [from, end), with `live`, into one run.
  void MergeFrom(const ValuePool& pool, const std::vector<uint32_t>& stamps,
                 size_t from, std::vector<Entry> live);

  size_t num_keys_;
  std::vector<Run> runs_;        // sizes decreasing
  std::vector<Entry> unranked_;  // NaN-keyed entries, walked by every probe
  size_t live_ = 0;
  size_t dead_ = 0;
};

/// One bucket's facts, each with the class of its partner-side `!=`
/// attribute, sorted by (class, fact): a probe of class c binary-searches
/// c's run and walks every fact outside it, so it costs O(log bucket) plus
/// its partners, however the classes are shaped; a walk over every pair of
/// distinct classes costs O(1) on a one-class split and O(bucket + pairs)
/// otherwise. Only buckets of two facts or more keep one; a one-fact
/// bucket's fact is checked as is.
struct ClassSplit {
  std::vector<std::pair<ValueId, FactId>> members;  // sorted

  void Add(ValueId c, FactId id) {
    const std::pair<ValueId, FactId> m(c, id);
    members.insert(std::lower_bound(members.begin(), members.end(), m), m);
  }
  void Remove(ValueId c, FactId id);

  /// Calls `fn(id)` for every fact whose class is not `c`.
  template <typename Fn>
  void ForEachOutside(ValueId c, Fn&& fn) const {
    if (one_class()) {
      if (members.front().first != c) {
        for (const auto& m : members) fn(m.second);
      }
      return;
    }
    const auto lo = std::lower_bound(members.begin(), members.end(),
                                     std::pair<ValueId, FactId>(c, 0));
    const auto hi = std::upper_bound(
        lo, members.end(), std::pair<ValueId, FactId>(c, UINT32_MAX));
    for (auto it = members.begin(); it != lo; ++it) fn(it->second);
    for (auto it = hi; it != members.end(); ++it) fn(it->second);
  }

  bool one_class() const {
    return members.front().first == members.back().first;
  }

  /// Calls `fn(x, y)` for every pair of members of distinct classes whose
  /// earlier member x (in member order) sits at a position in [lo, hi):
  /// over [0, members.size()), each cross-class pair once.
  template <typename Fn>
  void ForEachCrossPair(size_t lo, size_t hi, Fn&& fn) const {
    const size_t n = members.size();
    size_t later = lo;  // the first member of a class after member i's
    for (size_t i = lo; i < hi; ++i) {
      while (later < n && members[later].first == members[i].first) ++later;
      for (size_t j = later; j < n; ++j) {
        fn(members[i].second, members[j].second);
      }
    }
  }
};

/// The witness index itself (see the top of this file). Bucket groups are
/// shared: every binary side and every k-ary variable pair with the same
/// (relation, key attributes) buckets exactly the same facts under exactly
/// the same keys, so one KeyBuckets serves them all. Partner indexes are
/// shared the same way by the probe sides whose partner group, kind and
/// attributes coincide, and are laid out by their group's bucket ids.
/// Buckets and partner indexes hold class ids of one pool generation: once
/// a vacuum re-interns the database the index is stale, and the owner
/// builds it again.
class WitnessIndex {
 public:
  /// How the probe with the probe fact bound to one variable reaches its
  /// partners: the partner index it queries, and the probe-side attributes
  /// of that index's predicates with their operators oriented
  /// `probe op partner`. No index (-1) when the body indexes nothing but
  /// its key: then every fact of the partner bucket is admitted.
  struct SidePlan {
    int index = -1;
    AttrIndex probe_attrs[2] = {0, 0};
    CompareOp ops[2] = {CompareOp::kNe, CompareOp::kNe};
  };
  /// The blocking plan of one constraint. Binary: group[v] names the
  /// bucket group holding the facts of var_relation(v) keyed by their
  /// side-v key attributes (a keyless constraint's group is one bucket per
  /// relation). side[s] plans the probe with the probe fact bound to
  /// variable s; a symmetric body (the same with t and t' swapped, as every
  /// FD) plans side 0 only, which finds every pair. K-ary (k >= 3): for
  /// every ordered variable pair (u, v) with a non-empty
  /// ExtractPairBlockingKeys(dc, u, v), pair_group[v * k + u] names the
  /// group holding the facts of var_relation(v) keyed by their v-side
  /// attributes, and pair_attrs[v * k + u] holds the u-side attributes a
  /// bound t_u finds its bucket with; -1 for a pair with no equality key.
  /// Unary constraints keep the default: no groups.
  struct DcPlan {
    int group[2] = {-1, -1};
    bool symmetric = false;
    SidePlan side[2];
    std::vector<int> pair_group;
    std::vector<std::vector<AttrIndex>> pair_attrs;
  };

  /// Constraint `c`'s partners at one bucket key for its side-`side`
  /// probes: found once (FindPartners), then walked for every probe fact
  /// of the bucket (ForEachPartner). Empty when no partner lies there.
  class Partners {
   public:
    bool empty() const {
      return bucket_.empty() && split_ == nullptr && runs_ == nullptr;
    }

   private:
    friend class WitnessIndex;
    const SidePlan* plan_ = nullptr;
    const std::vector<AttrIndex>* attrs_ = nullptr;  // the index's
    // The bucket itself: unindexed, or one fact under a `!=` index.
    FactSpan bucket_;
    const ClassSplit* split_ = nullptr;
    const OrderRuns* runs_ = nullptr;
  };

  /// The size of what a build holds: non-empty buckets over every group,
  /// the one-fact ones among them, `!=` split members and order-run
  /// entries over every partner index.
  struct Counts {
    size_t bucket_keys = 0;
    size_t one_fact_buckets = 0;
    size_t split_members = 0;
    size_t order_entries = 0;
  };

  /// Plans the groups and partner indexes of every binary constraint of
  /// `constraints`, then the pair groups of every k-ary one; holds no facts
  /// until Build.
  WitnessIndex(const std::vector<DenialConstraint>& constraints,
               size_t num_relations);

  /// Replaces the contents with `db`'s live facts, against `db`'s pool:
  /// one task per bucket group builds the group from its relation block
  /// (KeyBuckets::Build), then the group's partner indexes. `num_threads`
  /// follows DetectorOptions::num_threads (0 = one per hardware thread).
  /// With `only`, just the groups and partner indexes that the binary
  /// constraints listed there plan are built; the others are left empty.
  void Build(const Database& db, size_t num_threads,
             const std::vector<uint32_t>* only = nullptr);

  /// Enters resp. removes a live fact of `db` in every group over its
  /// relation and in their partner indexes. Remove must run before the
  /// fact's cells change: its keys are recomputed from them.
  void Add(const Database& db, FactId id);
  void Remove(const Database& db, FactId id);

  /// Whether the index's class ids belong to another pool generation than
  /// `pool`'s (a vacuum re-interned the database): then only Build may
  /// follow.
  bool stale(const ValuePool& pool) const {
    return generation_ != pool.generation();
  }

  size_t num_constraints() const { return plans_.size(); }
  const DcPlan& plan(size_t c) const { return plans_[c]; }
  size_t num_groups() const { return groups_.size(); }
  const KeyBuckets& group(size_t g) const { return groups_[g]; }
  Counts counts() const;

  /// Calls `fn(partner)` for every fact that constraint `c`'s side-`side`
  /// plan admits against the probe row `self` (bound to variable `side`):
  /// the facts of the partner bucket at self's key whose indexed
  /// predicates hold, each once, self included if it qualifies. Reads the
  /// index only, so concurrent probes may share it.
  template <typename Fn>
  void ForEachPartner(const Database& db, size_t c, int side,
                      const RowRef& self, Fn&& fn) const {
    const DcPlan& plan = plans_[c];
    const uint32_t b = groups_[plan.group[1 - side]].Find(
        self, groups_[plan.group[side]].attrs());
    ForEachPartner(db, PartnersAt(c, side, b), self, fn);
  }

  /// The bucket-major form of the probe above: constraint `c`'s side-`side`
  /// partners at the key of bucket `probe_bucket` of the side's own group,
  /// looked up once for every probe fact of that bucket.
  Partners FindPartners(size_t c, int side, uint32_t probe_bucket) const;
  template <typename Fn>
  void ForEachPartner(const Database& db, const Partners& at,
                      const RowRef& self, Fn&& fn) const;

  /// The `!=` splits, by bucket id, whose cross-class pairs are exactly
  /// constraint `c`'s side-0 candidates, each unordered pair once: when
  /// the body is symmetric, both variables share one bucket group and the
  /// split is on the probe's own `!=` attribute (every FD). A bucket of
  /// fewer than two facts has an empty split, and one with a one-class
  /// split holds no candidate. nullptr for other constraints.
  const std::vector<ClassSplit>* PairSplits(size_t c) const;

  /// Test hook: whether the index is exactly what a build over `db` would
  /// produce — every group holds precisely the buckets KeyBuckets::Build
  /// makes of its relation (the same keys, each with the same facts, and
  /// no empty bucket left in the table), and every partner index equals a
  /// rebuild from its group's buckets: the same `!=` classes holding the
  /// same facts, resp. order runs that are well formed
  /// (OrderRuns::WellFormed), whose live entries are exactly the bucket's
  /// facts under their current keys, and whose tombstones do not outnumber
  /// them. Of a stale index (see stale()) only the facts each bucket holds
  /// are compared. On failure fills `*error` and returns false.
  bool CheckInvariant(const Database& db, std::string* error) const;

 private:
  // The partner index of one bucket group under one partner-side shape:
  // per bucket id, the bucket's facts split on a `!=` attribute (buckets
  // of two facts or more) or held in OrderRuns on one or two order
  // attributes.
  struct PartnerIndex {
    uint32_t group = 0;
    bool order = false;
    std::vector<AttrIndex> attrs;    // the `!=` attribute, or the order keys
    std::vector<ClassSplit> splits;  // !order
    std::vector<OrderRuns> runs;     // order
  };

  // Builds `index` from its group's buckets, against db's pool;
  // `bucket_of_row` maps the rows of the group's relation block to their
  // buckets.
  void BuildPartnerIndex(const Database& db,
                         const std::vector<uint32_t>& bucket_of_row,
                         PartnerIndex& index) const;
  // Constraint c's side-`side` partners in bucket b of the partner group.
  Partners PartnersAt(size_t c, int side, uint32_t b) const;
  // The fact's OrderRuns entry under `index`: its current stamp and keys.
  OrderRuns::Entry EntryOf(const PartnerIndex& index, const RowRef& row) const;

  std::vector<DcPlan> plans_;  // parallel to the constraints
  std::vector<KeyBuckets> groups_;
  std::vector<std::vector<uint32_t>> groups_by_rel_;
  std::vector<PartnerIndex> indexes_;
  std::vector<std::vector<uint32_t>> indexes_by_group_;
  // FactId -> stamp, bumped whenever the fact leaves its buckets: an
  // OrderRuns entry is live while it carries its fact's current stamp.
  std::vector<uint32_t> stamps_;
  // Pool generation the index's class ids belong to.
  uint64_t generation_ = 0;
};

template <typename Fn>
void WitnessIndex::ForEachPartner(const Database& db, const Partners& at,
                                  const RowRef& self, Fn&& fn) const {
  if (at.empty()) return;
  const SidePlan& plan = *at.plan_;
  if (at.runs_ != nullptr) {
    OrderRuns::Probe probe;
    for (size_t k = 0; k < at.attrs_->size(); ++k) {
      probe.op[k] = plan.ops[k];
      probe.value[k] = self.class_at(plan.probe_attrs[k]);
    }
    at.runs_->ForEachPartner(db.pool(), probe, stamps_, fn);
    return;
  }
  if (at.split_ != nullptr) {
    at.split_->ForEachOutside(self.class_at(plan.probe_attrs[0]), fn);
    return;
  }
  if (plan.index < 0) {
    for (const FactId other : at.bucket_) fn(other);
    return;
  }
  const FactId only = at.bucket_.front();  // a one-fact `!=` bucket
  if (BindFact(db, only).class_at((*at.attrs_)[0]) !=
      self.class_at(plan.probe_attrs[0])) {
    fn(only);
  }
}

/// Anchored k-ary enumeration of constraint `c` (k >= 3 variables) of
/// `index`: every satisfying assignment whose support contains the fact
/// `anchor`, each exactly once — the anchor occupies the first variable
/// position bound to it, so earlier positions exclude the anchor and later
/// positions may rebind it. This is the incremental-maintenance mode:
/// after an insert or update of `anchor`, the witnesses flowing through it
/// are exactly the minimal-subset candidates that can have appeared.
/// `emit` receives the sorted, deduplicated support of each satisfying
/// assignment (the same support may be emitted several times — once per
/// derivation — matching the batch detector's per-assignment violation
/// count); discovery order is unspecified, the emission multiset is fixed.
///
/// Each inner variable with an equality key against an already-bound
/// variable enumerates its matching bucket of the pair's group
/// (DcPlan::pair_group) instead of the full relation, shrinking anchored
/// neighborhoods from O(n^{k-1}) toward O(bucket^{k-1}); a variable with no
/// such key scans its relation. Binding proceeds anchor-position-first so
/// the changed fact's key values prune every keyed variable; each
/// predicate is evaluated exactly once, at the step its last variable
/// binds. `index` must hold `db`'s live facts, the anchor aside: Apply
/// enters the changed fact only after its probe, so that no fact watches
/// itself. The walk skips the anchor in a bucket and, at every position
/// after its first, tries the anchor's row itself, after the bucket,
/// whenever the anchor's key there equals the bound partner's.
template <typename Emit>
void EnumerateKAryAnchored(const DcEval& eval, const Database& db,
                           FactId anchor, const WitnessIndex& index, size_t c,
                           Emit&& emit) {
  const DenialConstraint& dc = eval.dc();
  const WitnessIndex::DcPlan& plan = index.plan(c);
  const size_t k = dc.num_vars();
  const Database::RowLocation anchor_loc = db.Locate(anchor);
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
      // only rows whose key values equal the partner's can satisfy the
      // body.
      for (size_t s = 0; s < step; ++s) {
        const size_t u = order[s];
        const int group = plan.pair_group[var * k + u];
        if (group < 0) continue;
        const KeyBuckets& buckets = index.group(group);
        const std::vector<AttrIndex>& u_attrs = plan.pair_attrs[var * k + u];
        const uint32_t b = buckets.Find(assignment[u], u_attrs);
        if (b != KeyBuckets::kNone) {
          for (const FactId id : buckets.facts(b)) {
            if (id != anchor) try_row(db.Locate(id).row);
          }
        }
        // The anchor, skipped above since the index need not hold it, may
        // rebind any position after its own.
        if (var > anchor_pos && &rel == rels[anchor_pos]) {
          const RowRef own{&rel, anchor_loc.row};
          bool same_key = true;
          for (size_t i = 0; i < u_attrs.size(); ++i) {
            same_key = same_key && own.class_at(buckets.attrs()[i]) ==
                                       assignment[u].class_at(u_attrs[i]);
          }
          if (same_key) try_row(anchor_loc.row);
        }
        return;
      }
      for (uint32_t i = 0; i < rel.num_rows(); ++i) try_row(i);
    };
    recurse(recurse, 0);
  }
}

}  // namespace dbim

#endif  // DBIM_VIOLATIONS_WITNESS_INDEX_H_
