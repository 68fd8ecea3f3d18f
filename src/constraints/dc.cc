#include "constraints/dc.h"

#include "common/check.h"

namespace dbim {

DenialConstraint::DenialConstraint(std::vector<RelationId> var_relations,
                                   std::vector<Predicate> predicates)
    : var_relations_(std::move(var_relations)),
      predicates_(std::move(predicates)) {
  DBIM_CHECK(!var_relations_.empty());
  DBIM_CHECK(!predicates_.empty());
  for (const Predicate& p : predicates_) {
    DBIM_CHECK_MSG(p.MaxVar() < var_relations_.size(),
                   "predicate mentions tuple variable %u but the DC has %zu",
                   p.MaxVar(), var_relations_.size());
  }
}

RelationId DenialConstraint::var_relation(uint32_t var) const {
  DBIM_CHECK(var < var_relations_.size());
  return var_relations_[var];
}

bool DenialConstraint::TriviallyNotUnary() const {
  for (const Predicate& p : predicates_) {
    if (!p.IsCrossVariable()) continue;
    // `t[A] op t'[A]` with an irreflexive operator can never hold when both
    // variables denote the same fact.
    if (p.lhs().attr == p.rhs_operand().attr &&
        var_relations_[p.lhs().var] == var_relations_[p.rhs_operand().var] &&
        (p.op() == CompareOp::kNe || p.op() == CompareOp::kLt ||
         p.op() == CompareOp::kGt)) {
      return true;
    }
  }
  return false;
}

std::string DenialConstraint::ToString(const Schema& schema) const {
  std::string out = "!(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i > 0) out += " & ";
    const Predicate& p = predicates_[i];
    const RelationId lhs_rel = var_relations_[p.lhs().var];
    const RelationId rhs_rel =
        p.rhs_is_constant() ? lhs_rel : var_relations_[p.rhs_operand().var];
    out += p.ToString(schema, lhs_rel, rhs_rel);
  }
  out += ")";
  return out;
}

bool operator==(const DenialConstraint& a, const DenialConstraint& b) {
  if (a.var_relations_ != b.var_relations_) return false;
  if (a.predicates_.size() != b.predicates_.size()) return false;
  for (size_t i = 0; i < a.predicates_.size(); ++i) {
    const Predicate& pa = a.predicates_[i];
    const Predicate& pb = b.predicates_[i];
    if (!(pa.lhs() == pb.lhs()) || pa.op() != pb.op() ||
        pa.rhs_is_constant() != pb.rhs_is_constant()) {
      return false;
    }
    if (pa.rhs_is_constant()) {
      if (pa.rhs_constant() != pb.rhs_constant()) return false;
    } else {
      if (!(pa.rhs_operand() == pb.rhs_operand())) return false;
    }
  }
  return true;
}

DcBuilder::DcBuilder(const Schema& schema, RelationId relation)
    : schema_(schema), relation_(relation) {}

AttrIndex DcBuilder::Attr(const std::string& name) const {
  const auto idx = schema_.relation(relation_).FindAttribute(name);
  DBIM_CHECK_MSG(idx.has_value(), "unknown attribute '%s'", name.c_str());
  return *idx;
}

DcBuilder& DcBuilder::Cross(const std::string& a, CompareOp op,
                            const std::string& b) {
  predicates_.emplace_back(Operand{0, Attr(a)}, op, Operand{1, Attr(b)});
  return *this;
}

DcBuilder& DcBuilder::Within(uint32_t var, const std::string& a, CompareOp op,
                             const std::string& b) {
  predicates_.emplace_back(Operand{var, Attr(a)}, op, Operand{var, Attr(b)});
  return *this;
}

DcBuilder& DcBuilder::Const(uint32_t var, const std::string& a, CompareOp op,
                            Value c) {
  predicates_.emplace_back(Operand{var, Attr(a)}, op, std::move(c));
  return *this;
}

DenialConstraint DcBuilder::BuildBinary() const {
  return DenialConstraint({relation_, relation_}, predicates_);
}

DenialConstraint DcBuilder::BuildUnary() const {
  for (const Predicate& p : predicates_) {
    DBIM_CHECK(p.MaxVar() == 0);
  }
  return DenialConstraint({relation_}, predicates_);
}

PairBlockingKeys ExtractPairBlockingKeys(const DenialConstraint& dc,
                                         uint32_t u, uint32_t v) {
  DBIM_CHECK(u != v);
  PairBlockingKeys keys;
  for (const Predicate& p : dc.predicates()) {
    if (!p.IsCrossVariable() || p.op() != CompareOp::kEq) continue;
    if (p.lhs().var == u && p.rhs_operand().var == v) {
      keys.u_attrs.push_back(p.lhs().attr);
      keys.v_attrs.push_back(p.rhs_operand().attr);
    } else if (p.lhs().var == v && p.rhs_operand().var == u) {
      keys.u_attrs.push_back(p.rhs_operand().attr);
      keys.v_attrs.push_back(p.lhs().attr);
    }
  }
  return keys;
}

}  // namespace dbim
