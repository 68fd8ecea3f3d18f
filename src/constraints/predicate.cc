#include "constraints/predicate.h"

#include "common/check.h"
#include "common/string_util.h"

namespace dbim {

bool EvalCompare(CompareOp op, const Value& a, const Value& b) {
  switch (op) {
    case CompareOp::kEq:
      return a == b;
    case CompareOp::kNe:
      return a != b;
    case CompareOp::kLt:
      return a < b;
    case CompareOp::kLe:
      return a <= b;
    case CompareOp::kGt:
      return a > b;
    case CompareOp::kGe:
      return a >= b;
  }
  return false;
}

CompareOp NegateOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return CompareOp::kNe;
    case CompareOp::kNe:
      return CompareOp::kEq;
    case CompareOp::kLt:
      return CompareOp::kGe;
    case CompareOp::kLe:
      return CompareOp::kGt;
    case CompareOp::kGt:
      return CompareOp::kLe;
    case CompareOp::kGe:
      return CompareOp::kLt;
  }
  return op;
}

CompareOp FlipOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
    case CompareOp::kNe:
      return op;
    case CompareOp::kLt:
      return CompareOp::kGt;
    case CompareOp::kLe:
      return CompareOp::kGe;
    case CompareOp::kGt:
      return CompareOp::kLt;
    case CompareOp::kGe:
      return CompareOp::kLe;
  }
  return op;
}

std::string ToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

std::optional<CompareOp> ParseCompareOp(const std::string& s) {
  if (s == "=" || s == "==") return CompareOp::kEq;
  if (s == "!=" || s == "<>") return CompareOp::kNe;
  if (s == "<") return CompareOp::kLt;
  if (s == "<=") return CompareOp::kLe;
  if (s == ">") return CompareOp::kGt;
  if (s == ">=") return CompareOp::kGe;
  return std::nullopt;
}

uint32_t Predicate::MaxVar() const {
  uint32_t m = lhs_.var;
  if (!rhs_is_constant() && rhs_operand_->var > m) m = rhs_operand_->var;
  return m;
}

std::string Predicate::ToString(const Schema& schema, RelationId lhs_rel,
                                RelationId rhs_rel) const {
  auto var_name = [](uint32_t v) {
    std::string n = "t";
    n.append(v, '\'');
    return n;
  };
  std::string out = StrFormat(
      "%s[%s] %s ", var_name(lhs_.var).c_str(),
      schema.relation(lhs_rel).attribute_name(lhs_.attr).c_str(),
      dbim::ToString(op_).c_str());
  if (rhs_is_constant()) {
    out += rhs_constant_.ToString();
  } else {
    out += StrFormat(
        "%s[%s]", var_name(rhs_operand_->var).c_str(),
        schema.relation(rhs_rel).attribute_name(rhs_operand_->attr).c_str());
  }
  return out;
}

}  // namespace dbim
