#include "violations/witness_index.h"

#include <cmath>
#include <numeric>

#include "common/check.h"
#include "common/parallel.h"
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
  // Level L's window at i is the better of level L - 1's windows at i and
  // i + 2^(L-1); level 0's window at i is position i itself.
  auto build = [&](std::vector<std::vector<uint32_t>>& table, auto better) {
    for (size_t level = 1; (size_t{1} << level) <= n; ++level) {
      const size_t half = size_t{1} << (level - 1);
      std::vector<uint32_t>& cur = table.emplace_back(n - 2 * half + 1);
      for (size_t i = 0; i < cur.size(); ++i) {
        const size_t a = level == 1 ? i : table[level - 2][i];
        const size_t b = level == 1 ? i + half : table[level - 2][i + half];
        cur[i] = static_cast<uint32_t>(better(keys_[b], keys_[a]) ? b : a);
      }
    }
  };
  build(min_, [](uint32_t x, uint32_t y) { return x < y; });
  build(max_, [](uint32_t x, uint32_t y) { return x > y; });
}

bool MinMaxTable::WellFormed(const std::vector<uint32_t>& keys) const {
  if (keys_ != keys) return false;
  const size_t n = keys.size();
  const size_t levels = n == 0 ? 0 : FloorLog2(n);
  if (min_.size() != levels || max_.size() != levels) return false;
  for (size_t level = 1; level <= levels; ++level) {
    const size_t half = size_t{1} << (level - 1);
    for (const bool is_max : {false, true}) {
      const auto& table = is_max ? max_ : min_;
      if (table[level - 1].size() != n - 2 * half + 1) return false;
      for (size_t i = 0; i < table[level - 1].size(); ++i) {
        const size_t a = level == 1 ? i : table[level - 2][i];
        const size_t b = level == 1 ? i + half : table[level - 2][i + half];
        const uint32_t want = is_max ? std::max(keys[a], keys[b])
                                     : std::min(keys[a], keys[b]);
        const uint32_t got = table[level - 1][i];
        if (got < i || got >= i + 2 * half || keys[got] != want) return false;
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
                                   std::vector<Entry> entries) const {
  Run run;
  const size_t n = entries.size();
  std::vector<uint32_t> ranks[2];
  std::vector<std::pair<ValueId, uint32_t>> by_class(n);  // (class, position)
  for (size_t k = 0; k < num_keys_; ++k) {
    for (size_t i = 0; i < n; ++i) {
      by_class[i] = {entries[i].key[k], static_cast<uint32_t>(i)};
    }
    std::sort(by_class.begin(), by_class.end());
    // The distinct classes, each with where its stretch of by_class ends.
    std::vector<Bound> of_class;
    std::vector<uint32_t> class_end;
    for (size_t i = 0; i < n; ++i) {
      if (i + 1 == n || by_class[i + 1].first != by_class[i].first) {
        of_class.push_back(BoundOf(pool, by_class[i].first));
        class_end.push_back(static_cast<uint32_t>(i + 1));
      }
    }
    std::vector<uint32_t> by_value(of_class.size());
    std::iota(by_value.begin(), by_value.end(), 0u);
    std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
      return Less(pool, of_class[a], of_class[b]);
    });
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
        ranks[k][by_class[i].second] = rank;
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
  if (!live.empty()) runs_.push_back(BuildRun(pool, std::move(live)));
}

void OrderRuns::Assign(const ValuePool& pool, std::vector<Entry> entries) {
  live_ = entries.size();
  dead_ = 0;
  runs_.clear();
  unranked_.clear();
  const auto ranked = std::stable_partition(
      entries.begin(), entries.end(),
      [&](const Entry& e) { return !Unranked(pool, e); });
  unranked_.assign(ranked, entries.end());
  entries.erase(ranked, entries.end());
  if (!entries.empty()) runs_.push_back(BuildRun(pool, std::move(entries)));
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
      if (groups_[g].relation == rel && groups_[g].attrs == attrs) {
        return static_cast<int>(g);
      }
    }
    const int g = static_cast<int>(groups_.size());
    groups_.push_back(KeyBuckets{rel, attrs, {}});
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
    const BlockingKeys keys = ExtractBlockingKeys(dc);
    for (uint32_t side = 0; side < 2; ++side) {
      plan.group[side] =
          group_for(dc.var_relation(side), side == 0 ? keys.var0 : keys.var1);
    }
    plan.symmetric = SwapSymmetric(dc);
    for (uint32_t side = 0; side < (plan.symmetric ? 1u : 2u); ++side) {
      plan.side[side] =
          plan_side(dc, side, static_cast<uint32_t>(plan.group[1 - side]));
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
  std::vector<uint32_t> tasks;
  for (uint32_t g = 0; g < groups_.size(); ++g) {
    groups_[g].buckets.clear();
    if (wanted_group[g]) tasks.push_back(g);
  }
  for (PartnerIndex& index : indexes_) {
    index.splits.clear();
    index.runs.clear();
  }
  size_t id_bound = 0;
  db.ForEachId([&](FactId id) { id_bound = size_t{id} + 1; });
  stamps_.assign(id_bound, 0);
  generation_ = db.pool().generation();

  // Each task writes its own group and that group's partner indexes only.
  OrderedStealingFor(
      num_threads == 0 ? ThreadPool::HardwareThreads() : num_threads,
      tasks.size(), 1,
      [&](IndexRange range) {
        for (size_t t = range.begin; t < range.end; ++t) {
          KeyBuckets& group = groups_[tasks[t]];
          const Database::RelationBlock& block =
              db.relation_block(group.relation);
          if (!group.attrs.empty()) group.buckets.reserve(block.num_rows());
          for (uint32_t row = 0; row < block.num_rows(); ++row) {
            group.Add(group.Hash(db.pool(), RowRef{&block, row}),
                      block.row_ids[row]);
          }
          for (const uint32_t i : indexes_by_group_[tasks[t]]) {
            if (wanted_index[i]) BuildPartnerIndex(db, indexes_[i]);
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
                                     PartnerIndex& index) const {
  index.splits.clear();
  index.runs.clear();
  for (const auto& [h, facts] : groups_[index.group].buckets) {
    if (!index.order) {
      if (facts.size() < 2) continue;
      ClassSplit& split = index.splits[h];
      split.members.reserve(facts.size());
      for (const FactId id : facts) {
        split.members.emplace_back(BindFact(db, id).class_at(index.attrs[0]),
                                   id);
      }
      std::sort(split.members.begin(), split.members.end());
      continue;
    }
    std::vector<OrderRuns::Entry> entries;
    entries.reserve(facts.size());
    for (const FactId id : facts) {
      entries.push_back(EntryOf(index, BindFact(db, id)));
    }
    index.runs.try_emplace(h, index.attrs.size())
        .first->second.Assign(db.pool(), std::move(entries));
  }
}

WitnessIndex::Partners WitnessIndex::FindPartners(size_t c, int side,
                                                  uint64_t key) const {
  const DcPlan& dc = plans_[c];
  Partners at;
  at.plan_ = &dc.side[side];
  const KeyBuckets& partners = groups_[dc.group[1 - side]];
  if (at.plan_->index < 0) {
    at.bucket_ = partners.Find(key);
    return at;
  }
  const PartnerIndex& index = indexes_[at.plan_->index];
  at.attrs_ = &index.attrs;
  if (index.order) {
    const auto it = index.runs.find(key);
    if (it != index.runs.end()) at.runs_ = &it->second;
    return at;
  }
  const auto it = index.splits.find(key);
  if (it != index.splits.end()) {
    at.split_ = &it->second;
  } else {
    at.bucket_ = partners.Find(key);  // one fact, or none
  }
  return at;
}

const std::unordered_map<uint64_t, ClassSplit>* WitnessIndex::PairSplits(
    size_t c) const {
  const DcPlan& dc = plans_[c];
  const SidePlan& side = dc.side[0];
  if (!dc.symmetric || side.index < 0 || dc.group[0] != dc.group[1]) {
    return nullptr;
  }
  const PartnerIndex& index = indexes_[side.index];
  if (index.order || index.attrs[0] != side.probe_attrs[0]) return nullptr;
  return &index.splits;
}

void WitnessIndex::RebuildPartnerIndexes(const Database& db) {
  for (PartnerIndex& index : indexes_) BuildPartnerIndex(db, index);
  generation_ = db.pool().generation();
}

void WitnessIndex::Add(const Database& db, FactId id) {
  if (id >= stamps_.size()) stamps_.resize(id + 1, 0);
  const Database::RowLocation loc = db.Locate(id);
  const RowRef row{&db.relation_block(loc.relation), loc.row};
  for (const uint32_t g : groups_by_rel_[loc.relation]) {
    const uint64_t h = groups_[g].Hash(db.pool(), row);
    const std::vector<FactId>& members = groups_[g].Add(h, id);
    for (const uint32_t i : indexes_by_group_[g]) {
      PartnerIndex& index = indexes_[i];
      if (index.order) {
        index.runs.try_emplace(h, index.attrs.size())
            .first->second.Insert(db.pool(), stamps_, EntryOf(index, row));
        continue;
      }
      // The split starts with the bucket's second fact, taking in the
      // first.
      if (members.size() < 2) continue;
      ClassSplit& split = index.splits[h];
      if (members.size() == 2) {
        const FactId first = members[0] == id ? members[1] : members[0];
        split.Add(BindFact(db, first).class_at(index.attrs[0]), first);
      }
      split.Add(row.class_at(index.attrs[0]), id);
    }
  }
}

void WitnessIndex::Remove(const Database& db, FactId id) {
  const Database::RowLocation loc = db.Locate(id);
  const RowRef row{&db.relation_block(loc.relation), loc.row};
  ++stamps_[id];  // kills the fact's OrderRuns entries
  for (const uint32_t g : groups_by_rel_[loc.relation]) {
    const uint64_t h = groups_[g].Hash(db.pool(), row);
    const std::vector<FactId>* members = groups_[g].Remove(h, id);
    for (const uint32_t i : indexes_by_group_[g]) {
      PartnerIndex& index = indexes_[i];
      if (index.order) {
        const auto it = index.runs.find(h);
        DBIM_CHECK(it != index.runs.end());
        it->second.Tombstone(db.pool(), stamps_);
        if (it->second.num_live() == 0) index.runs.erase(it);
        continue;
      }
      // Down to one fact, the bucket drops its split.
      if (members == nullptr || members->size() < 2) {
        index.splits.erase(h);
        continue;
      }
      const auto it = index.splits.find(h);
      DBIM_CHECK(it != index.splits.end());
      it->second.Remove(row.class_at(index.attrs[0]), id);
    }
  }
}

bool WitnessIndex::CheckInvariant(const Database& db,
                                  std::string* error) const {
  // The buckets must be exactly what a build over the live database
  // produces: same keys, same per-key membership (order-insensitive), no
  // empty buckets left behind.
  std::vector<std::unordered_map<uint64_t, std::vector<FactId>>> expected(
      groups_.size());
  db.ForEachId([&](FactId id) {
    const RowRef row = BindFact(db, id);
    for (const uint32_t g : groups_by_rel_[db.Locate(id).relation]) {
      expected[g][groups_[g].Hash(db.pool(), row)].push_back(id);
    }
  });
  for (size_t g = 0; g < groups_.size(); ++g) {
    const auto& actual = groups_[g].buckets;
    if (actual.size() != expected[g].size()) {
      if (error != nullptr) {
        *error = StrFormat("group %zu holds %zu keys, rebuild implies %zu", g,
                           actual.size(), expected[g].size());
      }
      return false;
    }
    for (const auto& [key, bucket] : actual) {
      if (bucket.empty()) {
        if (error != nullptr) *error = "empty bucket left in group map";
        return false;
      }
      const auto it = expected[g].find(key);
      std::vector<FactId> got(bucket);
      std::sort(got.begin(), got.end());
      if (it == expected[g].end() || it->second != got) {
        if (error != nullptr) {
          *error = StrFormat("group %zu bucket diverges from rebuild", g);
        }
        return false;
      }
    }
  }
  // Partner indexes: each must equal a rebuild from the buckets just
  // verified. A vacuum leaves their class ids stale until a rebuild, so
  // stale ones are not compared.
  if (stale(db.pool())) return true;
  for (size_t i = 0; i < indexes_.size(); ++i) {
    const PartnerIndex& index = indexes_[i];
    auto fail = [&](const char* what) {
      if (error != nullptr) {
        *error = StrFormat("partner index %zu: %s", i, what);
      }
      return false;
    };
    const auto& buckets = groups_[index.group].buckets;
    size_t split_buckets = 0;  // buckets of two facts or more
    for (const auto& [h, facts] : buckets) split_buckets += facts.size() > 1;
    if ((index.order ? index.runs.size() : index.splits.size()) !=
        (index.order ? buckets.size() : split_buckets)) {
      return fail("bucket keys differ from its group's");
    }
    for (const auto& [h, facts] : buckets) {
      std::vector<FactId> expected_facts(facts);
      std::sort(expected_facts.begin(), expected_facts.end());
      if (!index.order) {
        if (facts.size() < 2) continue;
        const auto it = index.splits.find(h);
        if (it == index.splits.end()) return fail("bucket missing");
        std::vector<std::pair<ValueId, FactId>> want;
        for (const FactId id : expected_facts) {
          want.emplace_back(BindFact(db, id).class_at(index.attrs[0]), id);
        }
        std::sort(want.begin(), want.end());
        if (it->second.members != want) {
          return fail("class split differs from rebuild");
        }
        continue;
      }
      const auto it = index.runs.find(h);
      if (it == index.runs.end()) return fail("bucket missing");
      if (!it->second.WellFormed(db.pool(), stamps_)) {
        return fail("order runs malformed or over their tombstone bound");
      }
      std::vector<FactId> live;
      bool keys_current = true;
      it->second.ForEachEntry([&](const OrderRuns::Entry& e) {
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
      if (!keys_current || live != expected_facts) {
        return fail("live order entries differ from rebuild");
      }
    }
  }
  return true;
}

}  // namespace dbim
