#include "cleaning/holoclean_sim.h"

#include <algorithm>
#include <map>
#include <unordered_map>

#include "common/check.h"
#include "violations/detector.h"
#include "violations/eval_kernel.h"

namespace dbim {

namespace {

// FD-style shape: two tuple variables, >= 1 cross equality, exactly one
// cross disequality, no other predicates. Returns (lhs attrs, rhs attr).
struct FdShape {
  std::vector<AttrIndex> key;   // equality attributes (same on both sides)
  AttrIndex value;              // the disequality attribute
};

std::optional<FdShape> MatchFdShape(const DenialConstraint& dc) {
  if (dc.num_vars() != 2) return std::nullopt;
  FdShape shape{{}, 0};
  size_t disequalities = 0;
  for (const Predicate& p : dc.predicates()) {
    if (!p.IsCrossVariable()) return std::nullopt;
    if (p.lhs().attr != p.rhs_operand().attr) return std::nullopt;
    if (p.op() == CompareOp::kEq) {
      shape.key.push_back(p.lhs().attr);
    } else if (p.op() == CompareOp::kNe) {
      shape.value = p.lhs().attr;
      ++disequalities;
    } else {
      return std::nullopt;
    }
  }
  if (disequalities != 1 || shape.key.empty()) return std::nullopt;
  return shape;
}


struct ValueVecHash {
  size_t operator()(const std::vector<Value>& vs) const {
    size_t h = 1469598103934665603ull;
    for (const Value& v : vs) {
      h ^= v.Hash();
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace

void SimulatedHoloClean::Clean(Database& db,
                               const std::vector<DenialConstraint>& constraints,
                               Rng& rng) const {
  for (const DenialConstraint& dc : constraints) {
    if (MatchFdShape(dc).has_value()) {
      CleanFdStyle(db, dc, rng);
    } else if (dc.num_vars() == 1) {
      CleanUnary(db, dc, rng);
    } else {
      CleanGeneric(db, dc, rng);
    }
  }
}

void SimulatedHoloClean::CleanFdStyle(Database& db, const DenialConstraint& dc,
                                      Rng& rng) const {
  const auto shape = MatchFdShape(dc);
  DBIM_CHECK(shape.has_value());
  const RelationId rel = dc.var_relation(0);

  // Group facts by the key attributes; within a block, the majority value
  // of the dependent attribute is the statistical repair target.
  std::unordered_map<std::vector<Value>, std::vector<FactId>, ValueVecHash>
      blocks;
  const ValuePool& pool = db.pool();
  for (const FactId id : db.ids()) {
    if (db.Locate(id).relation != rel) continue;
    std::vector<Value> key;
    key.reserve(shape->key.size());
    for (const AttrIndex a : shape->key) {
      key.push_back(pool.value(db.value_id(id, a)));
    }
    blocks[std::move(key)].push_back(id);
  }
  for (const auto& [key, members] : blocks) {
    if (members.size() < 2) continue;
    std::map<std::string, std::pair<Value, size_t>> counts;
    for (const FactId id : members) {
      const Value& v = pool.value(db.value_id(id, shape->value));
      auto& slot = counts[v.ToString()];
      slot.first = v;
      ++slot.second;
    }
    if (counts.size() < 2) continue;  // block already clean
    const auto majority = std::max_element(
        counts.begin(), counts.end(), [](const auto& a, const auto& b) {
          return a.second.second < b.second.second;
        });
    for (const FactId id : members) {
      if (pool.value(db.value_id(id, shape->value)) ==
          majority->second.first) {
        continue;
      }
      if (rng.Bernoulli(options_.cell_accuracy)) {
        db.UpdateValue(id, shape->value, majority->second.first);
      }
    }
  }
}

void SimulatedHoloClean::CleanUnary(Database& db, const DenialConstraint& dc,
                                    Rng& rng) const {
  const RelationId rel = dc.var_relation(0);
  for (const FactId id : db.ids()) {
    if (db.Locate(id).relation != rel) continue;
    // Compiled at check time: an earlier fix may have interned a value
    // that gives a constant predicate its class.
    if (!MakesSelfInconsistentInterned(DcEval(dc, db.pool()), db, id)) {
      continue;
    }
    if (!rng.Bernoulli(options_.cell_accuracy)) continue;
    // Break the first predicate of the (fully satisfied) body: rewrite its
    // left attribute so the negated comparison holds against the right side
    // (a constant or another attribute of the same fact).
    const Predicate& p = dc.predicates()[rng.UniformIndex(
        dc.predicates().size())];
    const Value target =
        p.rhs_is_constant()
            ? p.rhs_constant()
            : db.pool().value(db.value_id(id, p.rhs_operand().attr));
    const CompareOp want = NegateOp(p.op());
    std::vector<Value> candidates = db.ActiveDomain(rel, p.lhs().attr);
    candidates.push_back(target);  // equality/bounds often fixable in place
    std::vector<const Value*> good;
    for (const Value& v : candidates) {
      if (EvalCompare(want, v, target)) good.push_back(&v);
    }
    if (!good.empty()) {
      db.UpdateValue(id, p.lhs().attr, *good[rng.UniformIndex(good.size())]);
    }
  }
}

void SimulatedHoloClean::CleanGeneric(Database& db, const DenialConstraint& dc,
                                      Rng& rng) const {
  // Order DCs and other shapes: resolve each detected minimal violation by
  // breaking one predicate — copy the partner's value onto the cheaper
  // side, mimicking a repair model that snaps outliers onto inliers.
  ViolationDetector detector(db.schema_ptr(), {dc});
  const ViolationSet violations = detector.FindViolations(db);
  for (const FactSpan subset : violations) {
    if (subset.size != 2) continue;
    if (!rng.Bernoulli(options_.cell_accuracy)) continue;
    if (!db.Contains(subset[0]) || !db.Contains(subset[1])) continue;
    // Compiled at check time, as in CleanUnary.
    const DcEval eval(dc, db.pool());
    auto holds = [&](FactId t0, FactId t1) {
      if (db.Locate(t0).relation != dc.var_relation(0) ||
          db.Locate(t1).relation != dc.var_relation(1)) {
        return false;
      }
      const RowRef assignment[2] = {BindFact(db, t0), BindFact(db, t1)};
      return eval.BodyHolds(assignment);
    };
    const bool order01 = holds(subset[0], subset[1]);
    if (!order01 && !holds(subset[1], subset[0])) continue;
    const FactId first = order01 ? subset[0] : subset[1];
    const FactId second = order01 ? subset[1] : subset[0];
    // Break a random cross predicate by equalizing its two cells (for
    // order operators, equality refutes strict comparisons).
    std::vector<const Predicate*> cross;
    for (const Predicate& p : dc.predicates()) {
      if (p.IsCrossVariable() && p.op() != CompareOp::kEq) cross.push_back(&p);
    }
    if (cross.empty()) continue;
    const Predicate& p = *cross[rng.UniformIndex(cross.size())];
    const FactId lhs_fact = p.lhs().var == 0 ? first : second;
    const FactId rhs_fact = p.rhs_operand().var == 0 ? first : second;
    db.UpdateValue(
        lhs_fact, p.lhs().attr,
        db.pool().value(db.value_id(rhs_fact, p.rhs_operand().attr)));
  }
}

}  // namespace dbim
