#include "violations/order_index.h"

#include <cmath>
#include <numeric>

namespace dbim {

namespace {

// Whether Value::operator< is a strict weak order on the values of
// `classes`. It is one on nulls, strings and integers alone; a NaN breaks
// it, and so does an integer that a double cannot represent exactly once
// doubles take part (the two then compare through a rounded conversion).
bool StrictlyWeaklyOrdered(const ValuePool& pool,
                           const std::vector<ValueId>& classes) {
  constexpr int64_t kExactDoubleInt = int64_t{1} << 53;
  bool has_double = false;
  bool has_wide_int = false;
  for (const ValueId c : classes) {
    const Value& v = pool.value(c);
    if (v.kind() == Value::Kind::kDouble) {
      if (std::isnan(v.as_double())) return false;
      has_double = true;
    } else if (v.kind() == Value::Kind::kInt) {
      const int64_t x = v.as_int();
      if (x > kExactDoubleInt || x < -kExactDoubleInt) has_wide_int = true;
    }
  }
  return !(has_double && has_wide_int);
}

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

// The sort order of OrderRuns' keys: Value::operator< with integers
// compared through their double, so that every NaN-free set of values is
// totally preordered. It agrees with Value::operator< except between two
// integers of magnitude at least 2^53 that round to the same double, which
// it ties.
bool OrderKeyLess(const Value& a, const Value& b) {
  const int ra = KeyKindRank(a);
  const int rb = KeyKindRank(b);
  if (ra != rb) return ra < rb;
  if (ra == 1) return a.numeric() < b.numeric();
  if (ra == 2) return a.as_string() < b.as_string();
  return false;
}

bool Equivalent(const Value& a, const Value& b) {
  return !OrderKeyLess(a, b) && !OrderKeyLess(b, a);
}

}  // namespace

OrderRanks::OrderRanks(const DenialConstraint& dc, const ValuePool& pool,
                       const Database::RelationBlock& r0,
                       const Database::RelationBlock& r1) {
  for (const Predicate& p : dc.predicates()) {
    if (keys_.size() == 2) break;
    if (!p.IsCrossVariable() || p.op() == CompareOp::kEq ||
        p.op() == CompareOp::kNe) {
      continue;
    }
    // Orient probe-first: `t'[B] op t[A]` is `t[A] flip(op) t'[B]`.
    const bool probe_lhs = p.lhs().var == 0;
    const AttrIndex probe_attr =
        probe_lhs ? p.lhs().attr : p.rhs_operand().attr;
    const AttrIndex partner_attr =
        probe_lhs ? p.rhs_operand().attr : p.lhs().attr;
    const std::vector<ValueId>& probe_col = r0.class_columns[probe_attr];
    const std::vector<ValueId>& partner_col = r1.class_columns[partner_attr];

    std::vector<ValueId> classes(probe_col);
    classes.insert(classes.end(), partner_col.begin(), partner_col.end());
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
    if (!StrictlyWeaklyOrdered(pool, classes)) break;

    // Dense ranks: a class's position among the classes sorted by value.
    // Equal values share a class, and on a strict weak order values of
    // distinct classes compare unequal, so no two classes tie.
    std::vector<uint32_t> by_value(classes.size());
    std::iota(by_value.begin(), by_value.end(), 0u);
    std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
      return pool.value(classes[a]) < pool.value(classes[b]);
    });
    std::vector<uint32_t> rank_of(classes.size());
    for (uint32_t k = 0; k < by_value.size(); ++k) rank_of[by_value[k]] = k;
    auto ranks_of = [&](const std::vector<ValueId>& column) {
      std::vector<uint32_t> ranks(column.size());
      for (size_t row = 0; row < column.size(); ++row) {
        ranks[row] = rank_of[std::lower_bound(classes.begin(), classes.end(),
                                              column[row]) -
                             classes.begin()];
      }
      return ranks;
    };
    keys_.push_back(Key{probe_lhs ? p.op() : FlipOp(p.op()),
                        ranks_of(probe_col), ranks_of(partner_col)});
  }
  if (!keys_.empty()) return;
  for (const Predicate& p : dc.predicates()) {
    if (!p.IsCrossVariable() || p.op() != CompareOp::kNe) continue;
    const bool probe_lhs = p.lhs().var == 0;
    ne_probe_ = &r0.class_columns[probe_lhs ? p.lhs().attr
                                            : p.rhs_operand().attr];
    ne_partner_ = &r1.class_columns[probe_lhs ? p.rhs_operand().attr
                                              : p.lhs().attr];
    return;
  }
}

void OrderIndex::Build(const OrderRanks& ranks) {
  if (ranks.num_keys() == 0) {
    if (!ranks.has_ne()) return;
    // Boyer–Moore vote: if some class holds a strict majority of the rows,
    // it is the survivor. No verification pass is needed — when no class
    // has a majority, every class holds at most half the rows, which is
    // all the probe's cost bound asks of a class other than M.
    uint32_t votes = 0;
    for (const uint32_t j : rows_) {
      const ValueId c = ranks.ne_partner(j);
      if (votes == 0) {
        majority_ = c;
        votes = 1;
      } else if (c == majority_) {
        ++votes;
      } else {
        --votes;
      }
    }
    for (const uint32_t j : rows_) {
      if (ranks.ne_partner(j) != majority_) others_.push_back(j);
    }
    return;
  }
  std::stable_sort(rows_.begin(), rows_.end(), [&](uint32_t a, uint32_t b) {
    return ranks.partner(0, a) < ranks.partner(0, b);
  });
  const size_t n = rows_.size();
  sorted_ = std::make_unique<Sorted>();
  sorted_->first_keys.resize(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_->first_keys[i] = ranks.partner(0, rows_[i]);
  }
  if (ranks.num_keys() == 1) return;
  std::vector<uint32_t> second(n);
  for (size_t i = 0; i < n; ++i) second[i] = ranks.partner(1, rows_[i]);
  sorted_->second = SortTree(second);
}

SortTree::SortTree(const std::vector<uint32_t>& keys) {
  const size_t n = keys.size();
  if (n == 0) return;
  levels_.resize(FloorLog2(n) + 1);
  levels_[0].keys = keys;
  levels_[0].pos.resize(n);
  std::iota(levels_[0].pos.begin(), levels_[0].pos.end(), 0u);
  // Level L merges the sorted halves of every aligned 2^L block of L - 1.
  for (size_t level = 1; level < levels_.size(); ++level) {
    const Level& below = levels_[level - 1];
    Level& lv = levels_[level];
    lv.keys.resize(n);
    lv.pos.resize(n);
    const size_t half = size_t{1} << (level - 1);
    for (size_t begin = 0; begin < n; begin += 2 * half) {
      const size_t mid = std::min(begin + half, n);
      const size_t end = std::min(begin + 2 * half, n);
      size_t a = begin, b = mid, out = begin;
      while (a < mid || b < end) {
        const bool take_left =
            b == end || (a < mid && below.keys[a] <= below.keys[b]);
        const size_t from = take_left ? a++ : b++;
        lv.keys[out] = below.keys[from];
        lv.pos[out] = below.pos[from];
        ++out;
      }
    }
  }
}

bool SortTree::WellFormed(const std::vector<uint32_t>& keys) const {
  const size_t n = keys.size();
  if (levels_.size() != (n == 0 ? 0 : FloorLog2(n) + 1)) return false;
  for (size_t level = 0; level < levels_.size(); ++level) {
    const Level& lv = levels_[level];
    if (lv.keys.size() != n || lv.pos.size() != n) return false;
    const size_t width = size_t{1} << level;
    for (size_t begin = 0; begin < n; begin += width) {
      const size_t end = std::min(begin + width, n);
      std::vector<uint32_t> block(lv.pos.begin() + begin, lv.pos.begin() + end);
      std::sort(block.begin(), block.end());
      for (size_t i = begin; i < end; ++i) {
        if (block[i - begin] != i || keys[lv.pos[i]] != lv.keys[i]) {
          return false;
        }
        if (i > begin && lv.keys[i - 1] > lv.keys[i]) return false;
      }
    }
  }
  return true;
}

// Where OrderKeyLess cannot decide exactly, the range widens: a NaN probe
// admits every rank, and a wide-integer probe treats a strict comparison
// as non-strict, admitting the integers it ties with. Otherwise, for any
// NaN-free p and q, `p < q` iff OrderKeyLess(p, q) unless both are wide
// integers, and `p <= q` implies !OrderKeyLess(q, p) always.
std::pair<uint32_t, uint32_t> OrderRuns::RankRange(
    const ValuePool& pool, const std::vector<ValueId>& bounds, CompareOp op,
    const Value& p) {
  const uint32_t n = static_cast<uint32_t>(bounds.size());
  if (IsNan(p)) return {0, n};
  auto lower = [&] {
    return static_cast<uint32_t>(
        std::lower_bound(bounds.begin(), bounds.end(), p,
                         [&](ValueId c, const Value& v) {
                           return OrderKeyLess(pool.value(c), v);
                         }) -
        bounds.begin());
  };
  auto upper = [&] {
    return static_cast<uint32_t>(
        std::upper_bound(bounds.begin(), bounds.end(), p,
                         [&](const Value& v, ValueId c) {
                           return OrderKeyLess(v, pool.value(c));
                         }) -
        bounds.begin());
  };
  const bool relax = IsWideInt(p);
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
  for (size_t k = 0; k < num_keys_; ++k) {
    std::vector<ValueId> classes(n);
    for (size_t i = 0; i < n; ++i) classes[i] = entries[i].key[k];
    std::sort(classes.begin(), classes.end());
    classes.erase(std::unique(classes.begin(), classes.end()), classes.end());
    std::vector<uint32_t> by_value(classes.size());
    std::iota(by_value.begin(), by_value.end(), 0u);
    std::sort(by_value.begin(), by_value.end(), [&](uint32_t a, uint32_t b) {
      return OrderKeyLess(pool.value(classes[a]), pool.value(classes[b]));
    });
    // One rank per tie class of OrderKeyLess, represented by its first
    // class id.
    std::vector<ValueId>& bounds = run.bounds[k];
    std::vector<uint32_t> rank_of(classes.size());
    for (const uint32_t c : by_value) {
      if (bounds.empty() ||
          OrderKeyLess(pool.value(bounds.back()), pool.value(classes[c]))) {
        bounds.push_back(classes[c]);
      }
      rank_of[c] = static_cast<uint32_t>(bounds.size() - 1);
    }
    ranks[k].resize(n);
    for (size_t i = 0; i < n; ++i) {
      ranks[k][i] = rank_of[std::lower_bound(classes.begin(), classes.end(),
                                             entries[i].key[k]) -
                            classes.begin()];
    }
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return ranks[0][a] < ranks[0][b];
  });
  run.entries.resize(n);
  run.rank0.resize(n);
  for (size_t i = 0; i < n; ++i) {
    run.entries[i] = entries[perm[i]];
    run.rank0[i] = ranks[0][perm[i]];
  }
  if (num_keys_ == 1) return run;
  std::vector<uint32_t> second(n);
  for (size_t i = 0; i < n; ++i) second[i] = ranks[1][perm[i]];
  run.second = SortTree(second);
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
    if (n == 0 || run.rank0.size() != n) return false;
    // The rank of each entry's key k: the place of the one bound its value
    // ties with, or -1.
    std::vector<int64_t> ranks[2];
    for (size_t k = 0; k < num_keys_; ++k) {
      const std::vector<ValueId>& bounds = run.bounds[k];
      for (size_t i = 1; i < bounds.size(); ++i) {
        if (!OrderKeyLess(pool.value(bounds[i - 1]), pool.value(bounds[i]))) {
          return false;
        }
      }
      for (const Entry& e : run.entries) {
        const Value& v = pool.value(e.key[k]);
        const auto it = std::lower_bound(
            bounds.begin(), bounds.end(), v, [&](ValueId c, const Value& x) {
              return OrderKeyLess(pool.value(c), x);
            });
        ranks[k].push_back(it != bounds.end() && Equivalent(pool.value(*it), v)
                               ? it - bounds.begin()
                               : -1);
      }
    }
    for (size_t i = 0; i < n; ++i) {
      if (Unranked(pool, run.entries[i]) || ranks[0][i] != run.rank0[i]) {
        return false;
      }
      if (i > 0 && run.rank0[i - 1] > run.rank0[i]) return false;
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

}  // namespace dbim
