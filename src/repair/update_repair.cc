#include "repair/update_repair.h"

#include <algorithm>
#include <map>
#include <set>

#include "common/check.h"
#include "common/timer.h"
#include "violations/detector.h"

namespace dbim {

namespace {

struct CellRef {
  FactId id;
  AttrIndex attr;
};

// Candidate replacement values for one column: the active domain, constants
// compared against the column, midpoints/extremes for numerically ordered
// columns, and two fresh sentinels (two suffice to express "make these cells
// equal to something new" vs "make them different and new"; DC predicates
// cannot distinguish further fresh values).
std::vector<Value> ColumnCandidates(
    const Database& db, RelationId rel, AttrIndex attr,
    const std::vector<DenialConstraint>& constraints, bool* ordered) {
  std::set<Value> values;
  for (const Value& v : db.ActiveDomain(rel, attr)) values.insert(v);
  *ordered = false;
  for (const DenialConstraint& dc : constraints) {
    for (const Predicate& p : dc.predicates()) {
      const bool touches_lhs =
          dc.var_relation(p.lhs().var) == rel && p.lhs().attr == attr;
      const bool touches_rhs = !p.rhs_is_constant() &&
                               dc.var_relation(p.rhs_operand().var) == rel &&
                               p.rhs_operand().attr == attr;
      if (!touches_lhs && !touches_rhs) continue;
      if (touches_lhs && p.rhs_is_constant()) values.insert(p.rhs_constant());
      if (p.op() != CompareOp::kEq && p.op() != CompareOp::kNe) {
        *ordered = true;
      }
    }
  }
  std::vector<Value> candidates(values.begin(), values.end());
  if (*ordered) {
    // Midpoints and extremes cover order-predicate repairs ("move this
    // value between/below/above the others").
    std::vector<Value> extra;
    const std::vector<Value> sorted = candidates;
    for (size_t i = 0; i + 1 < sorted.size(); ++i) {
      if (sorted[i].is_numeric() && sorted[i + 1].is_numeric()) {
        extra.push_back(
            Value((sorted[i].numeric() + sorted[i + 1].numeric()) / 2.0));
      }
    }
    for (const Value& v : sorted) {
      if (v.is_numeric()) {
        extra.push_back(Value(v.numeric() - 1.0));
        extra.push_back(Value(v.numeric() + 1.0));
      }
    }
    candidates.insert(candidates.end(), extra.begin(), extra.end());
  }
  candidates.push_back(Value("__dbim_fresh_1"));
  candidates.push_back(Value("__dbim_fresh_2"));
  return candidates;
}

class UpdateSearch {
 public:
  UpdateSearch(const Database& db, const ViolationDetector& detector,
               const std::vector<DenialConstraint>& constraints,
               const UpdateRepairOptions& options, const Deadline& deadline)
      : db_(db), detector_(detector), deadline_(deadline) {
    const auto& frozen = options.frozen_columns;
    // Only attributes mentioned by some constraint can matter.
    std::map<std::pair<RelationId, AttrIndex>, std::vector<Value>> columns;
    for (const DenialConstraint& dc : constraints) {
      for (const Predicate& p : dc.predicates()) {
        columns[{dc.var_relation(p.lhs().var), p.lhs().attr}];
        if (!p.rhs_is_constant()) {
          columns[{dc.var_relation(p.rhs_operand().var),
                   p.rhs_operand().attr}];
        }
      }
    }
    std::map<std::pair<RelationId, AttrIndex>, size_t> column_slot;
    storage_.reserve(columns.size());
    for (auto& [key, candidates] : columns) {
      if (std::find(frozen.begin(), frozen.end(), key) != frozen.end()) {
        continue;
      }
      bool ordered = false;
      column_slot[key] = storage_.size();
      storage_.push_back(
          ColumnCandidates(db, key.first, key.second, constraints, &ordered));
    }
    for (const FactId id : db.ids()) {
      const RelationId rel = db.Locate(id).relation;
      for (const auto& [key, slot] : column_slot) {
        if (key.first != rel) continue;
        cells_.push_back(CellRef{id, key.second});
        cell_candidates_.push_back(&storage_[slot]);
      }
    }
  }

  bool ExistsRepairOfSize(size_t k) {
    Database work = db_;
    return Choose(work, 0, k);
  }

  bool TimedOut() const { return timed_out_; }

 private:
  // Chooses the next updated cell at index >= `from`, then its value.
  bool Choose(Database& work, size_t from, size_t remaining) {
    if (deadline_.Expired()) {
      timed_out_ = true;
      return false;
    }
    if (remaining == 0) return detector_.Satisfies(work);
    for (size_t c = from; c < cells_.size(); ++c) {
      const CellRef cell = cells_[c];
      const Value original =
          work.pool().value(work.value_id(cell.id, cell.attr));
      for (const Value& candidate : *cell_candidates_[c]) {
        if (candidate == original) continue;
        work.UpdateValue(cell.id, cell.attr, candidate);
        if (Choose(work, c + 1, remaining - 1)) {
          work.UpdateValue(cell.id, cell.attr, original);
          return true;
        }
        if (timed_out_) break;
      }
      work.UpdateValue(cell.id, cell.attr, original);
      if (timed_out_) return false;
    }
    return false;
  }

  const Database& db_;
  const ViolationDetector& detector_;
  const Deadline& deadline_;
  std::vector<CellRef> cells_;
  std::vector<const std::vector<Value>*> cell_candidates_;
  std::vector<std::vector<Value>> storage_;
  bool timed_out_ = false;
};

}  // namespace

std::optional<size_t> MinUpdateRepair(
    const Database& db, const std::vector<DenialConstraint>& constraints,
    const UpdateRepairOptions& options) {
  const ViolationDetector detector(db.schema_ptr(), constraints);
  if (detector.Satisfies(db)) return 0;
  const Deadline deadline(options.deadline_seconds);
  UpdateSearch search(db, detector, constraints, options, deadline);
  for (size_t k = 1; k <= options.max_updates; ++k) {
    if (search.ExistsRepairOfSize(k)) return k;
    if (search.TimedOut()) return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace dbim
