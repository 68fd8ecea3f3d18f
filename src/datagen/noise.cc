#include "datagen/noise.h"

#include <algorithm>

#include "common/check.h"

namespace dbim {

namespace {

// Cell address chosen for a predicate side.
struct CellAddr {
  FactId id;
  AttrIndex attr;
};

std::vector<std::vector<std::vector<Value>>> CollectDomains(
    const Database& db) {
  std::vector<std::vector<std::vector<Value>>> domains(
      db.schema().num_relations());
  for (RelationId r = 0; r < db.schema().num_relations(); ++r) {
    const size_t arity = db.schema().relation(r).arity();
    domains[r].resize(arity);
    for (AttrIndex a = 0; a < arity; ++a) {
      domains[r][a] = db.ActiveDomain(r, a);
    }
  }
  return domains;
}

// A random value satisfying `current op target` when written into the
// left cell, preferring the active domain, falling back to synthesized
// values (paper: "a random value in the appropriate range otherwise").
std::optional<Value> SatisfyingValue(const std::vector<Value>& domain,
                                     CompareOp op, const Value& target,
                                     Rng& rng) {
  std::vector<const Value*> candidates;
  for (const Value& v : domain) {
    if (EvalCompare(op, v, target)) candidates.push_back(&v);
  }
  if (!candidates.empty()) {
    return *candidates[rng.UniformIndex(candidates.size())];
  }
  // Synthesize.
  if (target.is_numeric()) {
    const double t = target.numeric();
    switch (op) {
      case CompareOp::kLt:
      case CompareOp::kLe:
        return Value(static_cast<int64_t>(t) - rng.UniformInt(1, 100));
      case CompareOp::kGt:
      case CompareOp::kGe:
        return Value(static_cast<int64_t>(t) + rng.UniformInt(1, 100));
      case CompareOp::kNe:
        return Value(static_cast<int64_t>(t) + rng.UniformInt(1, 100));
      case CompareOp::kEq:
        return target;
    }
  }
  if (target.kind() == Value::Kind::kString) {
    if (op == CompareOp::kNe) return Value(target.as_string() + "_x");
    if (op == CompareOp::kEq) return target;
    if (op == CompareOp::kLe || op == CompareOp::kLt) {
      return Value("");  // empty string sorts first
    }
    return Value(target.as_string() + "~");  // sorts after
  }
  return std::nullopt;
}

}  // namespace

Value MakeTypo(const Value& v, Rng& rng) {
  switch (v.kind()) {
    case Value::Kind::kString: {
      std::string s = v.as_string();
      const char c = static_cast<char>('a' + rng.UniformInt(0, 25));
      if (s.empty() || rng.Bernoulli(0.3)) {
        s.push_back(c);
      } else {
        s[rng.UniformIndex(s.size())] = c;
      }
      return Value(std::move(s));
    }
    case Value::Kind::kInt: {
      int64_t delta = rng.UniformInt(1, 9);
      if (rng.Bernoulli(0.5)) delta = -delta;
      return Value(v.as_int() + delta);
    }
    case Value::Kind::kDouble: {
      double delta = static_cast<double>(rng.UniformInt(1, 9));
      if (rng.Bernoulli(0.5)) delta = -delta;
      return Value(v.as_double() + delta);
    }
    case Value::Kind::kNull:
      return Value(static_cast<int64_t>(rng.UniformInt(0, 9)));
  }
  return v;
}

CoNoiseGenerator::CoNoiseGenerator(const Database& reference,
                                   std::vector<DenialConstraint> constraints)
    : constraints_(std::move(constraints)),
      domains_(CollectDomains(reference)) {
  DBIM_CHECK(!constraints_.empty());
}

void CoNoiseGenerator::Step(Database& db, Rng& rng) const {
  Step(db, rng, [&db](FactId id, AttrIndex attr, Value v) {
    db.UpdateValue(id, attr, std::move(v));
  });
}

void CoNoiseGenerator::Step(const Database& db, Rng& rng,
                            const CellUpdateFn& update) const {
  if (db.empty()) return;
  const DenialConstraint& dc =
      constraints_[rng.UniformIndex(constraints_.size())];
  const std::vector<FactId> ids = db.ids();

  // Assign a random tuple (of the right relation) to each variable.
  std::vector<CellAddr> var_tuple(dc.num_vars());
  for (uint32_t v = 0; v < dc.num_vars(); ++v) {
    // Rejection-sample a fact of the variable's relation.
    for (int attempt = 0; attempt < 64; ++attempt) {
      const FactId id = ids[rng.UniformIndex(ids.size())];
      if (db.Locate(id).relation == dc.var_relation(v)) {
        var_tuple[v] = CellAddr{id, 0};
        break;
      }
      if (attempt == 63) return;  // no fact of that relation
    }
  }
  // Binary constraints: prefer two distinct tuples, as the paper does.
  if (dc.num_vars() == 2 && var_tuple[0].id == var_tuple[1].id &&
      ids.size() > 1) {
    for (int attempt = 0; attempt < 64; ++attempt) {
      const FactId id = ids[rng.UniformIndex(ids.size())];
      if (id != var_tuple[0].id &&
          db.Locate(id).relation == dc.var_relation(1)) {
        var_tuple[1].id = id;
        break;
      }
    }
  }

  for (const Predicate& p : dc.predicates()) {
    const CellAddr lhs{var_tuple[p.lhs().var].id, p.lhs().attr};
    const Value lhs_value = db.pool().value(db.value_id(lhs.id, lhs.attr));
    const Value rhs_value =
        p.rhs_is_constant()
            ? p.rhs_constant()
            : db.pool().value(db.value_id(var_tuple[p.rhs_operand().var].id,
                                          p.rhs_operand().attr));
    if (EvalCompare(p.op(), lhs_value, rhs_value)) continue;

    const bool can_touch_rhs = !p.rhs_is_constant();
    const bool touch_lhs = !can_touch_rhs || rng.Bernoulli(0.5);
    if (p.op() == CompareOp::kEq || p.op() == CompareOp::kLe ||
        p.op() == CompareOp::kGe) {
      // Copy one side onto the other; for <= / >= equality satisfies.
      if (touch_lhs) {
        update(lhs.id, lhs.attr, rhs_value);
      } else {
        const CellAddr rhs{var_tuple[p.rhs_operand().var].id,
                           p.rhs_operand().attr};
        update(rhs.id, rhs.attr, lhs_value);
      }
      continue;
    }
    // Strict / disequality operators: re-draw one side from the active
    // domain so the predicate is satisfied.
    if (touch_lhs) {
      const RelationId rel = db.Locate(lhs.id).relation;
      const auto value =
          SatisfyingValue(domains_[rel][lhs.attr], p.op(), rhs_value, rng);
      if (value.has_value()) update(lhs.id, lhs.attr, *value);
    } else {
      const CellAddr rhs{var_tuple[p.rhs_operand().var].id,
                         p.rhs_operand().attr};
      const RelationId rel = db.Locate(rhs.id).relation;
      const auto value = SatisfyingValue(domains_[rel][rhs.attr],
                                         FlipOp(p.op()), lhs_value, rng);
      if (value.has_value()) update(rhs.id, rhs.attr, *value);
    }
  }
}

RNoiseGenerator::RNoiseGenerator(const Database& reference,
                                 std::vector<DenialConstraint> constraints,
                                 double beta, double typo_probability)
    : constraints_(std::move(constraints)),
      typo_probability_(typo_probability) {
  // Attributes mentioned in some constraint, per relation.
  std::vector<std::vector<bool>> used(reference.schema().num_relations());
  for (RelationId r = 0; r < reference.schema().num_relations(); ++r) {
    used[r].assign(reference.schema().relation(r).arity(), false);
  }
  for (const DenialConstraint& dc : constraints_) {
    for (const Predicate& p : dc.predicates()) {
      used[dc.var_relation(p.lhs().var)][p.lhs().attr] = true;
      if (!p.rhs_is_constant()) {
        used[dc.var_relation(p.rhs_operand().var)][p.rhs_operand().attr] =
            true;
      }
    }
  }
  for (RelationId r = 0; r < reference.schema().num_relations(); ++r) {
    for (AttrIndex a = 0; a < used[r].size(); ++a) {
      if (!used[r][a]) continue;
      Column col;
      col.relation = r;
      col.attr = a;
      col.domain = reference.ActiveDomain(r, a);
      if (!col.domain.empty()) {
        col.zipf = std::make_unique<ZipfDistribution>(col.domain.size(), beta);
      }
      columns_.push_back(std::move(col));
    }
  }
  DBIM_CHECK(!columns_.empty());
}

void RNoiseGenerator::Step(Database& db, Rng& rng) const {
  Step(db, rng, [&db](FactId id, AttrIndex attr, Value v) {
    db.UpdateValue(id, attr, std::move(v));
  });
}

void RNoiseGenerator::Step(const Database& db, Rng& rng,
                           const CellUpdateFn& update) const {
  if (db.empty()) return;
  const std::vector<FactId> ids = db.ids();
  // Pick a column, then a fact of its relation.
  for (int attempt = 0; attempt < 128; ++attempt) {
    const Column& col = columns_[rng.UniformIndex(columns_.size())];
    const FactId id = ids[rng.UniformIndex(ids.size())];
    if (db.Locate(id).relation != col.relation) continue;
    const Value current = db.pool().value(db.value_id(id, col.attr));
    if (rng.Bernoulli(typo_probability_)) {
      update(id, col.attr, MakeTypo(current, rng));
      return;
    }
    if (col.domain.empty()) continue;
    // "Another value from the active domain": re-draw until it differs
    // (bounded retries; degenerate single-value domains fall through).
    for (int draw = 0; draw < 16; ++draw) {
      const Value candidate = col.domain[col.zipf->Sample(rng)];
      if (candidate != current) {
        update(id, col.attr, candidate);
        return;
      }
    }
  }
}

size_t RNoiseGenerator::StepsForAlpha(const Database& db,
                                      double alpha) const {
  size_t cells = 0;
  for (RelationId r = 0; r < db.schema().num_relations(); ++r) {
    const Database::RelationBlock& block = db.relation_block(r);
    cells += block.num_rows() * block.columns.size();
  }
  return static_cast<size_t>(alpha * static_cast<double>(cells));
}

}  // namespace dbim
