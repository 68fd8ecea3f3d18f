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

  std::vector<Level>& levels = sorted_->levels;
  levels.resize(FloorLog2(n) + 1);
  levels[0].rows = rows_;
  levels[0].keys.resize(n);
  for (size_t i = 0; i < n; ++i) levels[0].keys[i] = ranks.partner(1, rows_[i]);
  // Level L merges the sorted halves of every aligned 2^L block of L - 1.
  for (size_t level = 1; level < levels.size(); ++level) {
    const Level& below = levels[level - 1];
    Level& lv = levels[level];
    lv.keys.resize(n);
    lv.rows.resize(n);
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
        lv.rows[out] = below.rows[from];
        ++out;
      }
    }
  }
}

}  // namespace dbim
