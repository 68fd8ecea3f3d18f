#ifndef DBIM_CONSTRAINTS_DC_H_
#define DBIM_CONSTRAINTS_DC_H_

#include <string>
#include <vector>

#include "constraints/predicate.h"
#include "relational/schema.h"

namespace dbim {

/// A denial constraint
///   forall t_0, ..., t_{k-1} : NOT (P_1 AND ... AND P_m)
/// where each tuple variable t_i ranges over one relation and each P_j is an
/// atomic comparison between attributes of the variables or against a
/// constant (paper Section 2). DCs are anti-monotonic: deleting tuples never
/// introduces a violation.
///
/// Assignments may map distinct tuple variables to the *same* fact (the
/// paper notes "it may be the case that t = t'"); a violation whose support
/// is a single fact makes that fact self-inconsistent (a "contradictory
/// tuple" in Parisi and Grant's terminology).
class DenialConstraint {
 public:
  /// `var_relations[i]` is the relation tuple variable i ranges over.
  DenialConstraint(std::vector<RelationId> var_relations,
                   std::vector<Predicate> predicates);

  size_t num_vars() const { return var_relations_.size(); }
  RelationId var_relation(uint32_t var) const;
  const std::vector<RelationId>& var_relations() const {
    return var_relations_;
  }
  const std::vector<Predicate>& predicates() const { return predicates_; }

  /// True if some predicate can only be satisfied with t_i != t_j facts for
  /// syntactic reasons (e.g. contains `t[A] != t'[A]` between the two vars),
  /// meaning the DC can never yield unary violations. Used as a fast path.
  bool TriviallyNotUnary() const;

  /// Renders as `!( P1 & P2 & ... )`.
  std::string ToString(const Schema& schema) const;

  friend bool operator==(const DenialConstraint& a, const DenialConstraint& b);

 private:
  std::vector<RelationId> var_relations_;
  std::vector<Predicate> predicates_;
};

/// The equality-key attribute lists between an arbitrary ordered pair of
/// tuple variables (u, v) of a DC of any arity: for every cross-variable
/// equality predicate `t_u[a] = t_v[b]` of the body, `u_attrs` holds `a`
/// and `v_attrs` holds `b` at the same position. A binding of t_v can only
/// extend a binding of t_u when the key tuples are equal. This is the
/// blocking key of the witness index's bucket groups: a binary DC's sides
/// are its (u=0, v=1) case, and anchored k-ary probes prune with every
/// pair's.
struct PairBlockingKeys {
  std::vector<AttrIndex> u_attrs;
  std::vector<AttrIndex> v_attrs;
  bool empty() const { return u_attrs.empty(); }
};

/// Extracts the equality keys linking variables `u` and `v` (u != v) of
/// `dc`; empty when no cross-variable equality mentions exactly that pair
/// (e.g. pure order constraints).
PairBlockingKeys ExtractPairBlockingKeys(const DenialConstraint& dc,
                                         uint32_t u, uint32_t v);

/// Builder for the common single-relation binary DC
/// `forall t, t' : !(...)`, used pervasively by the dataset definitions.
class DcBuilder {
 public:
  /// Both tuple variables range over `relation`.
  DcBuilder(const Schema& schema, RelationId relation);

  /// Adds `t[a] op t'[b]` (variable 0 on the left, variable 1 on the right).
  DcBuilder& Cross(const std::string& a, CompareOp op, const std::string& b);

  /// Adds `t[a] op t[b]` within variable `var`.
  DcBuilder& Within(uint32_t var, const std::string& a, CompareOp op,
                    const std::string& b);

  /// Adds `t_var[a] op c`.
  DcBuilder& Const(uint32_t var, const std::string& a, CompareOp op, Value c);

  /// Finishes with two tuple variables.
  DenialConstraint BuildBinary() const;

  /// Finishes with one tuple variable.
  DenialConstraint BuildUnary() const;

 private:
  AttrIndex Attr(const std::string& name) const;

  const Schema& schema_;
  RelationId relation_;
  std::vector<Predicate> predicates_;
};

}  // namespace dbim

#endif  // DBIM_CONSTRAINTS_DC_H_
