#include "violations/witness_index.h"

#include <cmath>
#include <cstring>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
#include "common/radix_sort.h"
#include "common/string_util.h"

namespace dbim {

namespace {

bool IsNan(const Value& v) {
  return v.kind() == Value::Kind::kDouble && std::isnan(v.as_double());
}

// An integer that OrderKeyLess may tie with another integer: only two of
// magnitude at least 2^53 can round to one double.
bool IsWideInt(const Value& v) {
  constexpr int64_t kExactDoubleInt = int64_t{1} << 53;
  return v.kind() == Value::Kind::kInt &&
         (v.as_int() >= kExactDoubleInt || v.as_int() <= -kExactDoubleInt);
}

int KeyKindRank(const Value& v) {
  switch (v.kind()) {
    case Value::Kind::kNull:
      return 0;
    case Value::Kind::kInt:
    case Value::Kind::kDouble:
      return 1;
    case Value::Kind::kString:
      return 2;
  }
  return 3;
}


// Whether predicate `b` says what `a` says with t and t' swapped.
bool SwapsTo(const Predicate& a, const Predicate& b) {
  auto swap = [](const Operand& o) { return Operand{1 - o.var, o.attr}; };
  const Operand lhs = swap(a.lhs());
  if (a.rhs_is_constant() || b.rhs_is_constant()) {
    return a.rhs_is_constant() && b.rhs_is_constant() && a.op() == b.op() &&
           b.lhs() == lhs && a.rhs_constant() == b.rhs_constant();
  }
  const Operand rhs = swap(a.rhs_operand());
  return (b.op() == a.op() && b.lhs() == lhs && b.rhs_operand() == rhs) ||
         (b.op() == FlipOp(a.op()) && b.lhs() == rhs &&
          b.rhs_operand() == lhs);
}

// Whether a binary body holds on (t, t') exactly when it holds on (t', t):
// both variables range over one relation and swapping them maps the
// predicate set onto itself. Then probing a fact as t alone finds every
// pair, and the t' probe could only re-find them.
bool SwapSymmetric(const DenialConstraint& dc) {
  if (dc.var_relation(0) != dc.var_relation(1)) return false;
  const std::vector<Predicate>& preds = dc.predicates();
  return std::all_of(preds.begin(), preds.end(), [&](const Predicate& a) {
    return std::any_of(preds.begin(), preds.end(),
                       [&](const Predicate& b) { return SwapsTo(a, b); });
  });
}

}  // namespace

MinMaxTable::MinMaxTable(std::vector<uint32_t> keys)
    : keys_(std::move(keys)) {
  const size_t n = keys_.size();
  const size_t size = n < 2 ? 0 : Offset(FloorLog2(n) + 1);
  // Level L's window at i is the better of level L - 1's windows at i and
  // i + 2^(L-1), which lie n - 2^(L-1) + 1 slots back; level 0's window at
  // i is position i itself. The windows' extreme keys ride along level by
  // level, so the loop reads no key by position and vectorizes.
  auto build = [&](std::vector<uint32_t>& table, auto better) {
    table.resize(size);
    std::vector<uint32_t> prev_key(keys_);
    std::vector<uint32_t> cur_key(n);
    for (size_t level = 1; Offset(level) < size; ++level) {
      const size_t half = size_t{1} << (level - 1);
      uint32_t* cur = table.data() + Offset(level);
      const uint32_t* prev = level == 1 ? nullptr : cur - (n - half + 1);
      const uint32_t* pk = prev_key.data();
      uint32_t* ck = cur_key.data();
      for (size_t i = 0; i + 2 * half <= n; ++i) {
        const uint32_t a = level == 1 ? static_cast<uint32_t>(i) : prev[i];
        const uint32_t b =
            level == 1 ? static_cast<uint32_t>(i + half) : prev[i + half];
        const bool take_b = better(pk[i + half], pk[i]);
        cur[i] = take_b ? b : a;
        ck[i] = take_b ? pk[i + half] : pk[i];
      }
      prev_key.swap(cur_key);
    }
  };
  build(min_, [](uint32_t x, uint32_t y) { return x < y; });
  build(max_, [](uint32_t x, uint32_t y) { return x > y; });
}

bool MinMaxTable::WellFormed(const std::vector<uint32_t>& keys) const {
  const size_t n = keys.size();
  const size_t size = n < 2 ? 0 : Offset(FloorLog2(n) + 1);
  if (keys_ != keys || min_.size() != size || max_.size() != size) {
    return false;
  }
  // Each window names a position inside it holding the better key of the
  // two windows of the level below.
  for (size_t level = 1; Offset(level) < size; ++level) {
    const size_t half = size_t{1} << (level - 1);
    for (const bool is_max : {false, true}) {
      const uint32_t* cur = (is_max ? max_ : min_).data() + Offset(level);
      const uint32_t* prev = level == 1 ? nullptr : cur - (n - half + 1);
      for (size_t i = 0; i + 2 * half <= n; ++i) {
        const size_t a = level == 1 ? i : prev[i];
        const size_t b = level == 1 ? i + half : prev[i + half];
        const uint32_t want = is_max ? std::max(keys[a], keys[b])
                                     : std::min(keys[a], keys[b]);
        if (cur[i] < i || cur[i] >= i + 2 * half || keys[cur[i]] != want) {
          return false;
        }
      }
    }
  }
  return true;
}

OrderRuns::Bound OrderRuns::BoundOf(const ValuePool& pool, ValueId id) {
  const Value& v = pool.value(id);
  Bound b;
  b.rank = KeyKindRank(v);
  if (b.rank == 1) b.number = v.numeric();
  b.id = id;
  return b;
}

// OrderKeyLess, the sort order of OrderRuns' keys: Value::operator< with
// integers compared through their double, so that every NaN-free set of
// values is totally preordered. It agrees with Value::operator< except
// between two integers of magnitude at least 2^53 that round to the same
// double, which it ties.
bool OrderRuns::Less(const ValuePool& pool, const Bound& a, const Bound& b) {
  if (a.rank != b.rank) return a.rank < b.rank;
  if (a.rank == 1) return a.number < b.number;
  if (a.rank == 2) {
    return pool.value(a.id).as_string() < pool.value(b.id).as_string();
  }
  return false;
}

// Where OrderKeyLess cannot decide exactly, the range widens: a NaN probe
// admits every rank, and a wide-integer probe treats a strict comparison
// as non-strict, admitting the integers it ties with. Otherwise, for any
// NaN-free p and q, `p < q` iff OrderKeyLess(p, q) unless both are wide
// integers, and `p <= q` implies !OrderKeyLess(q, p) always.
std::pair<uint32_t, uint32_t> OrderRuns::RankRange(
    const ValuePool& pool, const std::vector<Bound>& bounds, CompareOp op,
    ValueId p) {
  const uint32_t n = static_cast<uint32_t>(bounds.size());
  const Value& value = pool.value(p);
  if (IsNan(value)) return {0, n};
  const Bound pb = BoundOf(pool, p);
  auto less = [&](const Bound& a, const Bound& b) { return Less(pool, a, b); };
  auto lower = [&] {
    return static_cast<uint32_t>(
        std::lower_bound(bounds.begin(), bounds.end(), pb, less) -
        bounds.begin());
  };
  auto upper = [&] {
    return static_cast<uint32_t>(
        std::upper_bound(bounds.begin(), bounds.end(), pb, less) -
        bounds.begin());
  };
  const bool relax = IsWideInt(value);
  switch (op) {
    case CompareOp::kLt:
      return {relax ? lower() : upper(), n};
    case CompareOp::kLe:
      return {lower(), n};
    case CompareOp::kGt:
      return {0, relax ? upper() : lower()};
    default:  // kGe; equality-type operators are never order keys
      return {0, upper()};
  }
}

bool OrderRuns::Unranked(const ValuePool& pool, const Entry& e) const {
  for (size_t k = 0; k < num_keys_; ++k) {
    if (IsNan(pool.value(e.key[k]))) return true;
  }
  return false;
}

OrderRuns::Run OrderRuns::BuildRun(const ValuePool& pool,
                                   const std::vector<Entry>& entries) const {
  Run run;
  const size_t n = entries.size();
  std::vector<uint32_t> ranks[2];
  // The positions, ascending, sorted stably on key k's class.
  std::vector<uint32_t> by_class(n);
  std::vector<uint32_t> scratch;
  for (size_t k = 0; k < num_keys_; ++k) {
    std::iota(by_class.begin(), by_class.end(), 0u);
    StableRadixSort(by_class, scratch,
                    [&](uint32_t i) { return entries[i].key[k]; });
    // The distinct classes, each with where its stretch of by_class ends.
    std::vector<Bound> of_class;
    std::vector<uint32_t> class_end;
    for (size_t i = 0; i < n; ++i) {
      const ValueId c = entries[by_class[i]].key[k];
      if (i + 1 == n || entries[by_class[i + 1]].key[k] != c) {
        of_class.push_back(BoundOf(pool, c));
        if (of_class.back().rank == 1 && std::isnan(of_class.back().number)) {
          return Run();  // a NaN key: no run holds it
        }
        class_end.push_back(static_cast<uint32_t>(i + 1));
      }
    }
    std::vector<uint32_t> by_value(of_class.size());
    std::iota(by_value.begin(), by_value.end(), 0u);
    if (std::all_of(of_class.begin(), of_class.end(),
                    [](const Bound& b) { return b.rank < 2; })) {
      // Nulls and numbers: a radix sort on an order-preserving image of
      // the double, below which null sits at 0.
      std::vector<uint64_t> image(of_class.size(), 0);
      for (size_t c = 0; c < of_class.size(); ++c) {
        uint64_t bits;
        std::memcpy(&bits, &of_class[c].number, sizeof bits);
        if (of_class[c].rank == 1) {
          image[c] = bits >> 63 ? ~bits : bits | uint64_t{1} << 63;
        }
      }
      for (const int shift : {0, 32}) {
        StableRadixSort(by_value, scratch, [&](uint32_t c) {
          return static_cast<uint32_t>(image[c] >> shift);
        });
      }
    } else {
      std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
        return Less(pool, of_class[a], of_class[b]);
      });
    }
    // One rank per tie class of OrderKeyLess, represented by its first
    // class.
    std::vector<Bound>& bounds = run.bounds[k];
    ranks[k].resize(n);
    for (const uint32_t c : by_value) {
      if (bounds.empty() || Less(pool, bounds.back(), of_class[c])) {
        bounds.push_back(of_class[c]);
      }
      const uint32_t rank = static_cast<uint32_t>(bounds.size() - 1);
      for (uint32_t i = c == 0 ? 0 : class_end[c - 1]; i < class_end[c]; ++i) {
        ranks[k][by_class[i]] = rank;
      }
    }
  }
  // A counting sort on the first key's rank, stable in position.
  run.rank_starts.assign(run.bounds[0].size() + 1, 0);
  for (size_t i = 0; i < n; ++i) ++run.rank_starts[ranks[0][i] + 1];
  std::partial_sum(run.rank_starts.begin(), run.rank_starts.end(),
                   run.rank_starts.begin());
  std::vector<uint32_t> next(run.rank_starts.begin(),
                             run.rank_starts.end() - 1);
  run.entries.resize(n);
  std::vector<uint32_t> second(num_keys_ == 1 ? 0 : n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t to = next[ranks[0][i]]++;
    run.entries[to] = entries[i];
    if (num_keys_ == 2) second[to] = ranks[1][i];
  }
  if (num_keys_ == 2) run.second = MinMaxTable(std::move(second));
  return run;
}

void OrderRuns::MergeFrom(const ValuePool& pool,
                          const std::vector<uint32_t>& stamps, size_t from,
                          std::vector<Entry> live) {
  for (size_t r = from; r < runs_.size(); ++r) {
    for (const Entry& e : runs_[r].entries) {
      if (stamps[e.id] == e.stamp) {
        live.push_back(e);
      } else {
        --dead_;
      }
    }
  }
  runs_.resize(from);
  if (live.empty()) return;
  runs_.push_back(BuildRun(pool, live));
  DBIM_CHECK(!runs_.back().entries.empty());  // NaN keys never reach a run
}

void OrderRuns::Assign(const ValuePool& pool, std::vector<Entry> entries) {
  live_ = entries.size();
  dead_ = 0;
  runs_.clear();
  unranked_.clear();
  if (entries.empty()) return;
  Run run = BuildRun(pool, entries);
  if (run.entries.empty()) {  // some entry has a NaN key
    const auto ranked = std::stable_partition(
        entries.begin(), entries.end(),
        [&](const Entry& e) { return !Unranked(pool, e); });
    unranked_.assign(ranked, entries.end());
    entries.erase(ranked, entries.end());
    if (!entries.empty()) run = BuildRun(pool, entries);
  }
  if (!run.entries.empty()) runs_.push_back(std::move(run));
}

void OrderRuns::Insert(const ValuePool& pool,
                       const std::vector<uint32_t>& stamps,
                       const Entry& entry) {
  ++live_;
  if (Unranked(pool, entry)) {
    unranked_.push_back(entry);
    return;
  }
  // The binary counter's carry: every trailing run no larger than what
  // joins it so far merges with the new entry, in one rebuild.
  size_t from = runs_.size();
  size_t size = 1;
  while (from > 0 && runs_[from - 1].entries.size() <= size) {
    size += runs_[--from].entries.size();
  }
  MergeFrom(pool, stamps, from, {entry});
}

void OrderRuns::Tombstone(const ValuePool& pool,
                          const std::vector<uint32_t>& stamps) {
  --live_;
  ++dead_;
  if (dead_ <= live_) return;
  const auto dead = std::remove_if(
      unranked_.begin(), unranked_.end(),
      [&](const Entry& e) { return stamps[e.id] != e.stamp; });
  dead_ -= static_cast<size_t>(unranked_.end() - dead);
  unranked_.erase(dead, unranked_.end());
  MergeFrom(pool, stamps, 0, {});
}

bool OrderRuns::WellFormed(const ValuePool& pool,
                           const std::vector<uint32_t>& stamps) const {
  size_t live = 0;
  size_t dead = 0;
  auto count = [&](const Entry& e) {
    if (stamps[e.id] == e.stamp) {
      ++live;
    } else {
      ++dead;
    }
  };
  for (const Entry& e : unranked_) {
    if (!Unranked(pool, e)) return false;
    count(e);
  }
  for (const Run& run : runs_) {
    const size_t n = run.entries.size();
    if (n == 0 || run.rank_starts.size() != run.bounds[0].size() + 1 ||
        run.rank_starts.back() != n ||
        !std::is_sorted(run.rank_starts.begin(), run.rank_starts.end())) {
      return false;
    }
    // The rank of each entry's key k: the place of the one bound its value
    // ties with, or -1.
    std::vector<int64_t> ranks[2];
    for (size_t k = 0; k < num_keys_; ++k) {
      const std::vector<Bound>& bounds = run.bounds[k];
      auto less = [&](const Bound& a, const Bound& b) {
        return Less(pool, a, b);
      };
      for (size_t i = 1; i < bounds.size(); ++i) {
        if (!less(bounds[i - 1], bounds[i])) return false;
      }
      for (const Entry& e : run.entries) {
        const Bound v = BoundOf(pool, e.key[k]);
        const auto it = std::lower_bound(bounds.begin(), bounds.end(), v, less);
        ranks[k].push_back(it != bounds.end() && !less(v, *it)
                               ? it - bounds.begin()
                               : -1);
      }
    }
    // Entry i lies within its first-key rank's stretch of positions.
    for (size_t i = 0; i < n; ++i) {
      const int64_t r = ranks[0][i];
      if (Unranked(pool, run.entries[i]) || r < 0 ||
          i < run.rank_starts[r] || i >= run.rank_starts[r + 1]) {
        return false;
      }
      count(run.entries[i]);
    }
    if (num_keys_ == 1) continue;
    std::vector<uint32_t> second(n);
    for (size_t i = 0; i < n; ++i) {
      if (ranks[1][i] < 0) return false;
      second[i] = static_cast<uint32_t>(ranks[1][i]);
    }
    if (!run.second.WellFormed(second)) return false;
  }
  return live == live_ && dead == dead_ && dead_ <= live_;
}

void ClassSplit::Remove(ValueId c, FactId id) {
  const auto it = std::lower_bound(members.begin(), members.end(),
                                   std::pair<ValueId, FactId>(c, id));
  DBIM_CHECK(it != members.end() && it->second == id);
  members.erase(it);
}

WitnessIndex::WitnessIndex(const std::vector<DenialConstraint>& constraints,
                           size_t num_relations)
    : plans_(constraints.size()), groups_by_rel_(num_relations) {
  auto group_for = [&](RelationId rel, const std::vector<AttrIndex>& attrs) {
    for (size_t g = 0; g < groups_.size(); ++g) {
      if (groups_[g].relation() == rel && groups_[g].attrs() == attrs) {
        return static_cast<int>(g);
      }
    }
    const int g = static_cast<int>(groups_.size());
    groups_.emplace_back(rel, attrs);
    groups_by_rel_[rel].push_back(static_cast<uint32_t>(g));
    indexes_by_group_.emplace_back();
    return g;
  };
  auto index_for = [&](uint32_t group, bool order,
                       const std::vector<AttrIndex>& attrs) {
    for (size_t i = 0; i < indexes_.size(); ++i) {
      const PartnerIndex& index = indexes_[i];
      if (index.group == group && index.order == order &&
          index.attrs == attrs) {
        return static_cast<int>(i);
      }
    }
    const int i = static_cast<int>(indexes_.size());
    indexes_.emplace_back();
    indexes_.back().group = group;
    indexes_.back().order = order;
    indexes_.back().attrs = attrs;
    indexes_by_group_[group].push_back(static_cast<uint32_t>(i));
    return i;
  };
  // The probe with the probe fact bound to variable `s` indexes the body's
  // first two cross order predicates or, with none, its first cross `!=`,
  // over the partner group.
  auto plan_side = [&](const DenialConstraint& dc, uint32_t s,
                       uint32_t partner_group) {
    SidePlan plan;
    std::vector<AttrIndex> partner_attrs;
    bool order = false;
    for (const bool want_order : {true, false}) {
      for (const Predicate& p : dc.predicates()) {
        if (!p.IsCrossVariable() || partner_attrs.size() == 2) continue;
        const bool is_order =
            p.op() != CompareOp::kEq && p.op() != CompareOp::kNe;
        if (want_order ? !is_order : p.op() != CompareOp::kNe) continue;
        const bool probe_lhs = p.lhs().var == s;
        const size_t k = partner_attrs.size();
        plan.probe_attrs[k] = probe_lhs ? p.lhs().attr : p.rhs_operand().attr;
        plan.ops[k] = probe_lhs ? p.op() : FlipOp(p.op());
        partner_attrs.push_back(probe_lhs ? p.rhs_operand().attr
                                          : p.lhs().attr);
        if (!want_order) break;
      }
      if (!partner_attrs.empty()) {
        order = want_order;
        break;
      }
    }
    if (!partner_attrs.empty()) {
      plan.index = index_for(partner_group, order, partner_attrs);
    }
    return plan;
  };

  for (uint32_t c = 0; c < constraints.size(); ++c) {
    const DenialConstraint& dc = constraints[c];
    if (dc.num_vars() != 2) continue;
    DcPlan& plan = plans_[c];
    const PairBlockingKeys keys = ExtractPairBlockingKeys(dc, 0, 1);
    plan.group[0] = group_for(dc.var_relation(0), keys.u_attrs);
    plan.group[1] = group_for(dc.var_relation(1), keys.v_attrs);
    plan.symmetric = SwapSymmetric(dc);
    for (uint32_t side = 0; side < (plan.symmetric ? 1u : 2u); ++side) {
      plan.side[side] =
          plan_side(dc, side, static_cast<uint32_t>(plan.group[1 - side]));
    }
  }
  // The k-ary pair groups come after every binary group, so a k-ary
  // constraint never renumbers them.
  for (uint32_t c = 0; c < constraints.size(); ++c) {
    const DenialConstraint& dc = constraints[c];
    const uint32_t k = dc.num_vars();
    if (k < 3) continue;
    DcPlan& plan = plans_[c];
    plan.pair_group.assign(size_t{k} * k, -1);
    plan.pair_attrs.resize(size_t{k} * k);
    for (uint32_t v = 0; v < k; ++v) {
      for (uint32_t u = 0; u < k; ++u) {
        if (u == v) continue;
        PairBlockingKeys keys = ExtractPairBlockingKeys(dc, u, v);
        if (keys.empty()) continue;
        plan.pair_group[v * k + u] =
            group_for(dc.var_relation(v), keys.v_attrs);
        plan.pair_attrs[v * k + u] = std::move(keys.u_attrs);
      }
    }
  }
}

void WitnessIndex::Build(const Database& db, size_t num_threads,
                         const std::vector<uint32_t>* only) {
  std::vector<bool> wanted_group(groups_.size(), only == nullptr);
  std::vector<bool> wanted_index(indexes_.size(), only == nullptr);
  for (size_t k = 0; only != nullptr && k < only->size(); ++k) {
    const DcPlan& plan = plans_[(*only)[k]];
    for (const int g : plan.group) {
      if (g >= 0) wanted_group[g] = true;
    }
    for (const SidePlan& side : plan.side) {
      if (side.index >= 0) wanted_index[side.index] = true;
    }
  }
  size_t id_bound = 0;
  db.ForEachId([&](FactId id) { id_bound = size_t{id} + 1; });
  stamps_.assign(id_bound, 0);
  generation_ = db.pool().generation();

  // Each task writes its own group and that group's partner indexes only;
  // a group that is not wanted is built empty.
  const Database::RelationBlock none;
  OrderedStealingFor(
      num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads,
      groups_.size(), 1,
      [&](IndexRange range) {
        std::vector<uint32_t> bucket_of_row;
        for (size_t g = range.begin; g < range.end; ++g) {
          KeyBuckets& group = groups_[g];
          group.Build(
              wanted_group[g] ? db.relation_block(group.relation()) : none,
              &bucket_of_row);
          for (const uint32_t i : indexes_by_group_[g]) {
            PartnerIndex& index = indexes_[i];
            index.splits.clear();
            index.runs.clear();
            if (wanted_index[i]) BuildPartnerIndex(db, bucket_of_row, index);
          }
        }
      },
      [](IndexRange) {});
}

OrderRuns::Entry WitnessIndex::EntryOf(const PartnerIndex& index,
                                       const RowRef& row) const {
  OrderRuns::Entry entry;
  entry.id = row.fact_id();
  entry.stamp = stamps_[entry.id];
  for (size_t k = 0; k < index.attrs.size(); ++k) {
    entry.key[k] = row.class_at(index.attrs[k]);
  }
  return entry;
}

void WitnessIndex::BuildPartnerIndex(const Database& db,
                                     const std::vector<uint32_t>& bucket_of_row,
                                     PartnerIndex& index) const {
  const KeyBuckets& group = groups_[index.group];
  const Database::RelationBlock& block = db.relation_block(group.relation());
  const uint32_t bound = group.bucket_bound();
  if (index.order) {
    // Each bucket's entries in row order, dealt out from one pass over the
    // rows.
    std::vector<std::vector<OrderRuns::Entry>> entries(bound);
    for (uint32_t b = 0; b < bound; ++b) {
      entries[b].reserve(group.facts(b).size);
    }
    for (uint32_t r = 0; r < block.num_rows(); ++r) {
      entries[bucket_of_row[r]].push_back(EntryOf(index, RowRef{&block, r}));
    }
    index.runs.assign(bound, OrderRuns(index.attrs.size()));
    for (uint32_t b = 0; b < bound; ++b) {
      index.runs[b].Assign(db.pool(), std::move(entries[b]));
    }
    return;
  }
  // The rows of the multi-fact buckets in fact order, sorted stably on
  // their class and dealt out to their buckets: each split comes out
  // sorted by (class, fact).
  index.splits.assign(bound, {});
  std::vector<uint32_t> rows;
  for (uint32_t r = 0; r < block.num_rows(); ++r) {
    if (group.facts(bucket_of_row[r]).size > 1) rows.push_back(r);
  }
  std::vector<uint32_t> scratch;
  if (!std::is_sorted(block.row_ids.begin(), block.row_ids.end())) {
    StableRadixSort(rows, scratch,
                    [&](uint32_t r) { return block.row_ids[r]; });
  }
  const ValueId* column = block.class_columns[index.attrs[0]].data();
  StableRadixSort(rows, scratch, [column](uint32_t r) { return column[r]; });
  for (uint32_t b = 0; b < bound; ++b) {
    const uint32_t size = group.facts(b).size;
    if (size > 1) index.splits[b].members.reserve(size);
  }
  for (const uint32_t r : rows) {
    index.splits[bucket_of_row[r]].members.emplace_back(column[r],
                                                        block.row_ids[r]);
  }
}

WitnessIndex::Partners WitnessIndex::PartnersAt(size_t c, int side,
                                                uint32_t b) const {
  const DcPlan& dc = plans_[c];
  Partners at;
  at.plan_ = &dc.side[side];
  if (b == KeyBuckets::kNone) return at;
  if (at.plan_->index < 0) {
    at.bucket_ = groups_[dc.group[1 - side]].facts(b);
    return at;
  }
  const PartnerIndex& index = indexes_[at.plan_->index];
  at.attrs_ = &index.attrs;
  if (index.order) {
    at.runs_ = &index.runs[b];
  } else if (index.splits[b].members.empty()) {
    at.bucket_ = groups_[dc.group[1 - side]].facts(b);  // one fact
  } else {
    at.split_ = &index.splits[b];
  }
  return at;
}

WitnessIndex::Partners WitnessIndex::FindPartners(
    size_t c, int side, uint32_t probe_bucket) const {
  const DcPlan& dc = plans_[c];
  const KeyBuckets& own = groups_[dc.group[side]];
  const KeyBuckets& partners = groups_[dc.group[1 - side]];
  return PartnersAt(c, side,
                    &own == &partners ? probe_bucket
                                      : partners.FindKey(own.key(probe_bucket)));
}

const std::vector<ClassSplit>* WitnessIndex::PairSplits(size_t c) const {
  const DcPlan& dc = plans_[c];
  const SidePlan& side = dc.side[0];
  if (!dc.symmetric || side.index < 0 || dc.group[0] != dc.group[1]) {
    return nullptr;
  }
  const PartnerIndex& index = indexes_[side.index];
  if (index.order || index.attrs[0] != side.probe_attrs[0]) return nullptr;
  return &index.splits;
}

WitnessIndex::Counts WitnessIndex::counts() const {
  Counts counts;
  for (const KeyBuckets& group : groups_) {
    counts.bucket_keys += group.num_keys();
    for (uint32_t b = 0; b < group.bucket_bound(); ++b) {
      counts.one_fact_buckets += group.facts(b).size == 1;
    }
  }
  for (const PartnerIndex& index : indexes_) {
    for (const ClassSplit& split : index.splits) {
      counts.split_members += split.members.size();
    }
    for (const OrderRuns& runs : index.runs) {
      runs.ForEachEntry([&](const OrderRuns::Entry&) {
        ++counts.order_entries;
      });
    }
  }
  return counts;
}

void WitnessIndex::Add(const Database& db, FactId id) {
  if (id >= stamps_.size()) stamps_.resize(id + 1, 0);
  const RowRef row = BindFact(db, id);
  for (const uint32_t g : groups_by_rel_[db.Locate(id).relation]) {
    KeyBuckets& group = groups_[g];
    const uint32_t b = group.Add(row);
    const FactSpan members = group.facts(b);
    for (const uint32_t i : indexes_by_group_[g]) {
      PartnerIndex& index = indexes_[i];
      if (index.order) {
        if (index.runs.size() <= b) {
          index.runs.resize(b + 1, OrderRuns(index.attrs.size()));
        }
        index.runs[b].Insert(db.pool(), stamps_, EntryOf(index, row));
        continue;
      }
      if (index.splits.size() <= b) index.splits.resize(b + 1);
      // The split starts with the bucket's second fact, taking in the
      // first.
      if (members.size < 2) continue;
      ClassSplit& split = index.splits[b];
      if (members.size == 2) {
        const FactId first = members[0] == id ? members[1] : members[0];
        split.Add(BindFact(db, first).class_at(index.attrs[0]), first);
      }
      split.Add(row.class_at(index.attrs[0]), id);
    }
  }
}

void WitnessIndex::Remove(const Database& db, FactId id) {
  const RowRef row = BindFact(db, id);
  ++stamps_[id];  // kills the fact's OrderRuns entries
  for (const uint32_t g : groups_by_rel_[db.Locate(id).relation]) {
    KeyBuckets& group = groups_[g];
    const uint32_t b = group.Remove(row);
    const uint32_t left = group.facts(b).size;
    for (const uint32_t i : indexes_by_group_[g]) {
      PartnerIndex& index = indexes_[i];
      if (index.order) {
        if (left == 0) {
          index.runs[b] = OrderRuns(index.attrs.size());
        } else {
          index.runs[b].Tombstone(db.pool(), stamps_);
        }
        continue;
      }
      // Down to one fact, the bucket drops its split.
      if (left < 2) {
        index.splits[b] = ClassSplit();
      } else {
        index.splits[b].Remove(row.class_at(index.attrs[0]), id);
      }
    }
  }
}

bool WitnessIndex::CheckInvariant(const Database& db,
                                  std::string* error) const {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };
  // A vacuum leaves every class id stale until the next Build: the
  // buckets must still hold the facts a rebuild groups together, but their
  // keys and the partner indexes are not compared.
  const bool current = !stale(db.pool());
  // Each group's non-empty buckets, each found at its key, as (key, sorted
  // facts) rows in key order: exactly the rows of a fresh build.
  auto rows = [&](const KeyBuckets& group, bool* found) {
    std::vector<std::vector<uint32_t>> out;
    for (uint32_t b = 0; b < group.bucket_bound(); ++b) {
      const FactSpan facts = group.facts(b);
      if (facts.empty()) continue;
      if (!current) {
        out.emplace_back();
      } else {
        *found = *found && group.FindKey(group.key(b)) == b;
        out.emplace_back(group.key(b), group.key(b) + group.attrs().size());
      }
      const size_t at = out.back().size();
      out.back().insert(out.back().end(), facts.begin(), facts.end());
      std::sort(out.back().begin() + at, out.back().end());
    }
    std::sort(out.begin(), out.end());
    return out;
  };
  for (size_t g = 0; g < groups_.size(); ++g) {
    KeyBuckets fresh(groups_[g].relation(), groups_[g].attrs());
    fresh.Build(db.relation_block(fresh.relation()));
    bool found = true;
    if (rows(groups_[g], &found) != rows(fresh, &found) || !found ||
        groups_[g].num_keys() != fresh.num_keys()) {
      return fail(StrFormat("group %zu diverges from rebuild", g));
    }
  }
  if (!current) return true;
  // Partner indexes: each must equal a rebuild from the buckets just
  // verified, bucket by bucket.
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const PartnerIndex& index = indexes_[i];
    const KeyBuckets& group = groups_[index.group];
    auto fail_at = [&](const char* what) {
      return fail(StrFormat("partner index %zu: %s", i, what));
    };
    if ((index.order ? index.runs.size() : index.splits.size()) !=
        group.bucket_bound()) {
      return fail_at("not laid out by its group's bucket ids");
    }
    for (uint32_t b = 0; b < group.bucket_bound(); ++b) {
      std::vector<FactId> facts(group.facts(b).begin(), group.facts(b).end());
      std::sort(facts.begin(), facts.end());
      if (!index.order) {
        std::vector<std::pair<ValueId, FactId>> want;
        for (const FactId id : facts) {
          want.emplace_back(BindFact(db, id).class_at(index.attrs[0]), id);
        }
        std::sort(want.begin(), want.end());
        if (facts.size() < 2) want.clear();
        if (index.splits[b].members != want) {
          return fail_at("class split differs from rebuild");
        }
        continue;
      }
      const OrderRuns& runs = index.runs[b];
      if (!runs.WellFormed(db.pool(), stamps_)) {
        return fail_at("order runs malformed or over their tombstone bound");
      }
      std::vector<FactId> live;
      bool keys_current = true;
      runs.ForEachEntry([&](const OrderRuns::Entry& e) {
        if (stamps_[e.id] != e.stamp) return;
        live.push_back(e.id);
        if (!db.Contains(e.id)) {
          keys_current = false;
          return;
        }
        const OrderRuns::Entry now = EntryOf(index, BindFact(db, e.id));
        if (now.key[0] != e.key[0] || now.key[1] != e.key[1]) {
          keys_current = false;
        }
      });
      std::sort(live.begin(), live.end());
      if (!keys_current || live != facts) {
        return fail_at("live order entries differ from rebuild");
      }
    }
  }
  return true;
}

}  // namespace dbim
