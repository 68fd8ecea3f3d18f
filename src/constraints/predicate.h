#ifndef DBIM_CONSTRAINTS_PREDICATE_H_
#define DBIM_CONSTRAINTS_PREDICATE_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/value.h"
#include "relational/schema.h"

namespace dbim {

/// Comparison operator of a denial-constraint predicate.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Evaluates `a op b` under the total order on values.
bool EvalCompare(CompareOp op, const Value& a, const Value& b);

/// The operator `rho'` with `a rho b  <=>  !(a rho' b)`.
CompareOp NegateOp(CompareOp op);

/// The operator `rho'` with `a rho b  <=>  b rho' a`.
CompareOp FlipOp(CompareOp op);

std::string ToString(CompareOp op);

/// Parses "=", "!=", "<>", "<", "<=", ">", ">=".
std::optional<CompareOp> ParseCompareOp(const std::string& s);

/// One side of a predicate referring to a tuple variable's attribute:
/// `t_var[attr]`.
struct Operand {
  uint32_t var;
  AttrIndex attr;

  friend bool operator==(const Operand& a, const Operand& b) {
    return a.var == b.var && a.attr == b.attr;
  }
};

/// An atomic comparison of a DC body: either `t_i[A] rho t_j[B]` or
/// `t_i[A] rho c` for a constant `c`.
class Predicate {
 public:
  /// Attribute-attribute comparison.
  Predicate(Operand lhs, CompareOp op, Operand rhs)
      : lhs_(lhs), op_(op), rhs_operand_(rhs) {}

  /// Attribute-constant comparison.
  Predicate(Operand lhs, CompareOp op, Value constant)
      : lhs_(lhs), op_(op), rhs_constant_(std::move(constant)) {}

  const Operand& lhs() const { return lhs_; }
  CompareOp op() const { return op_; }
  bool rhs_is_constant() const { return !rhs_operand_.has_value(); }
  const Operand& rhs_operand() const { return *rhs_operand_; }
  const Value& rhs_constant() const { return rhs_constant_; }

  /// Highest tuple-variable index mentioned.
  uint32_t MaxVar() const;

  /// True if the predicate compares attributes of two distinct variables.
  bool IsCrossVariable() const {
    return !rhs_is_constant() && rhs_operand_->var != lhs_.var;
  }

  std::string ToString(const Schema& schema, RelationId lhs_rel,
                       RelationId rhs_rel) const;

 private:
  Operand lhs_;
  CompareOp op_;
  std::optional<Operand> rhs_operand_;
  Value rhs_constant_;
};

}  // namespace dbim

#endif  // DBIM_CONSTRAINTS_PREDICATE_H_
