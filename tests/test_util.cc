#include "test_util.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/check.h"
#include "common/rng.h"
#include "constraints/parser.h"

namespace dbim::testing {

std::shared_ptr<const Schema> MakeAbcSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"A", "B", "C"});
  return schema;
}

bool BodyHolds(const DenialConstraint& dc,
               const std::vector<const Fact*>& assignment) {
  DBIM_CHECK(assignment.size() == dc.num_vars());
  for (const Predicate& p : dc.predicates()) {
    const Value& lhs = assignment[p.lhs().var]->value(p.lhs().attr);
    const Value& rhs = p.rhs_is_constant()
                           ? p.rhs_constant()
                           : assignment[p.rhs_operand().var]->value(
                                 p.rhs_operand().attr);
    if (!EvalCompare(p.op(), lhs, rhs)) return false;
  }
  return true;
}

bool BodyHolds(const DenialConstraint& dc, const Fact& t0, const Fact& t1) {
  return BodyHolds(dc, {&t0, &t1});
}

bool MakesSelfInconsistent(const DenialConstraint& dc, const Fact& f) {
  for (const RelationId r : dc.var_relations()) {
    if (r != f.relation()) return false;
  }
  return BodyHolds(dc, std::vector<const Fact*>(dc.num_vars(), &f));
}

NaiveMi NaiveMinimalSubsets(const std::vector<DenialConstraint>& dcs,
                            const Database& db) {
  const std::vector<FactId> ids = db.ids();
  std::vector<Fact> facts;
  facts.reserve(ids.size());
  for (const FactId id : ids) facts.push_back(db.fact(id));
  const size_t n = facts.size();

  // Every support (distinct facts of a satisfying assignment) of size >= 2,
  // overall and per binary constraint; singleton supports are exactly the
  // contradictory facts.
  std::set<std::vector<FactId>> supports;
  std::vector<std::set<std::vector<FactId>>> pairs_of(dcs.size());
  std::set<FactId> contradictory;
  bool counted = true;
  for (size_t c = 0; c < dcs.size(); ++c) {
    const DenialConstraint& dc = dcs[c];
    const size_t k = dc.num_vars();
    if (k > 2) counted = false;
    for (size_t i = 0; i < n; ++i) {
      if (MakesSelfInconsistent(dc, facts[i])) contradictory.insert(ids[i]);
    }
    if (k < 2 || n == 0) continue;
    std::vector<size_t> pick(k, 0);  // odometer over [0, n)^k
    std::vector<const Fact*> assignment(k);
    for (;;) {
      bool typed = true;
      for (size_t v = 0; v < k; ++v) {
        assignment[v] = &facts[pick[v]];
        typed = typed && assignment[v]->relation() ==
                             dc.var_relation(static_cast<uint32_t>(v));
      }
      if (typed && BodyHolds(dc, assignment)) {
        std::vector<FactId> support;
        for (const size_t i : pick) support.push_back(ids[i]);
        std::sort(support.begin(), support.end());
        support.erase(std::unique(support.begin(), support.end()),
                      support.end());
        if (support.size() >= 2) {
          supports.insert(support);
          if (k == 2) pairs_of[c].insert(support);
        }
      }
      size_t v = 0;
      while (v < k && ++pick[v] == n) pick[v++] = 0;
      if (v == k) break;
    }
  }
  for (const FactId id : contradictory) supports.insert({id});

  // A support is minimal iff none of its proper non-empty subsets is one.
  auto has_inconsistent_proper_subset = [&](const std::vector<FactId>& s) {
    const size_t full = (size_t{1} << s.size()) - 1;
    for (size_t mask = 1; mask < full; ++mask) {
      std::vector<FactId> sub;
      for (size_t b = 0; b < s.size(); ++b) {
        if ((mask >> b) & 1) sub.push_back(s[b]);
      }
      if (supports.count(sub) > 0) return true;
    }
    return false;
  };
  NaiveMi out;
  for (const std::vector<FactId>& s : supports) {
    if (!has_inconsistent_proper_subset(s)) out.subsets.push_back(s);
  }
  if (counted) {
    size_t count = contradictory.size();
    for (const auto& pairs : pairs_of) {
      for (const std::vector<FactId>& pair : pairs) {
        if (!has_inconsistent_proper_subset(pair)) ++count;
      }
    }
    out.num_violations = count;
  }
  return out;
}

std::vector<std::vector<FactId>> Subsets(const ViolationSet& v) {
  std::vector<std::vector<FactId>> subsets;
  for (const FactSpan subset : v) {
    subsets.emplace_back(subset.begin(), subset.end());
  }
  return subsets;
}

std::vector<std::vector<FactId>> SortedSubsets(const ViolationSet& v) {
  std::vector<std::vector<FactId>> subsets = Subsets(v);
  std::sort(subsets.begin(), subsets.end());
  return subsets;
}

void ExpectMatchesOracle(const std::vector<DenialConstraint>& dcs,
                         const Database& db, const ViolationSet& v) {
  const NaiveMi oracle = NaiveMinimalSubsets(dcs, db);
  EXPECT_EQ(SortedSubsets(v), oracle.subsets);
  if (oracle.num_violations.has_value()) {
    EXPECT_EQ(v.num_minimal_violations(), *oracle.num_violations);
  }
}

Database MakeRandomDatabase(std::shared_ptr<const Schema> schema,
                            RelationId relation, size_t num_facts,
                            int64_t domain, uint64_t seed) {
  Rng rng(seed);
  Database db(std::move(schema));
  for (size_t i = 0; i < num_facts; ++i) {
    std::vector<Value> values;
    const size_t arity = db.schema().relation(relation).arity();
    values.reserve(arity);
    for (size_t a = 0; a < arity; ++a) {
      values.emplace_back(rng.UniformInt(0, domain - 1));
    }
    db.Insert(Fact(relation, std::move(values)));
  }
  return db;
}

std::shared_ptr<const Schema> MakeRsSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"A", "B", "C", "D"});
  schema->AddRelation("S", {"A", "B", "C", "D"});
  return schema;
}

Database MakeMixedDatabase(std::shared_ptr<const Schema> schema,
                           size_t facts_per_relation, int64_t domain,
                           uint64_t seed) {
  Rng rng(seed);
  Database db(schema);
  for (RelationId r = 0; r < schema->num_relations(); ++r) {
    const size_t arity = schema->relation(r).arity();
    for (size_t i = 0; i < facts_per_relation; ++i) {
      std::vector<Value> values;
      for (size_t a = 0; a < arity; ++a) {
        const size_t kind = rng.UniformIndex(10);
        const int64_t x = rng.UniformInt(0, domain - 1);
        if (kind == 0) {
          values.emplace_back();
        } else if (kind <= 5) {
          values.emplace_back(x);
        } else if (kind <= 8) {
          values.emplace_back(static_cast<double>(x) +
                              (rng.Bernoulli(0.5) ? 0.0 : 0.5));
        } else {
          values.emplace_back(std::string(1, static_cast<char>('a' + x % 3)));
        }
      }
      db.Insert(Fact(r, std::move(values)));
    }
  }
  return db;
}

Database MakeSkewedDatabase(std::shared_ptr<const Schema> schema,
                            size_t facts_per_relation, uint64_t seed) {
  enum Shape { kMajority, kTied, kSpread, kSingle, kNullHeavy, kShifted };
  Rng rng(seed);
  Database db(schema);
  for (RelationId r = 0; r < schema->num_relations(); ++r) {
    const size_t arity = schema->relation(r).arity();
    std::vector<size_t> shapes(arity);
    for (size_t& shape : shapes) shape = rng.UniformIndex(6);
    for (size_t i = 0; i < facts_per_relation; ++i) {
      std::vector<Value> values;
      for (size_t a = 0; a < arity; ++a) {
        int64_t x = 0;
        switch (shapes[a]) {
          case kMajority:
            x = rng.Bernoulli(0.7) ? 0 : rng.UniformInt(1, 3);
            break;
          case kTied:
            x = rng.UniformInt(0, 1);
            break;
          case kSpread:
            x = rng.UniformInt(0, 5);
            break;
          case kSingle:
            x = 1;
            break;
          case kNullHeavy:
            x = rng.Bernoulli(0.7) ? -1 : rng.UniformInt(0, 2);
            break;
          default:  // kShifted: partly disjoint from every other column
            x = rng.UniformInt(0, 2) + static_cast<int64_t>(2 * r + a);
            break;
        }
        if (x < 0) {
          values.emplace_back();
        } else if (rng.Bernoulli(0.3)) {
          values.emplace_back(static_cast<double>(x));
        } else {
          values.emplace_back(x);
        }
      }
      db.Insert(Fact(r, std::move(values)));
    }
  }
  return db;
}

Database MakeBucketShapesDatabase(std::shared_ptr<const Schema> schema,
                                  size_t scale, uint64_t seed) {
  enum Shape { kOneFact, kOneClass, kMajority, kDistinct, kSelfInconsistent };
  Rng rng(seed);
  Database db(schema);
  for (RelationId r = 0; r < 2; ++r) {
    for (int64_t key = 0; key < (r == 0 ? 6 : 5); ++key) {
      // Key 5, in R only, is the fact-free probe bucket's.
      const size_t shape = key == 5 ? kOneFact : static_cast<size_t>(key);
      const size_t facts = shape == kOneFact ? 1 : scale;
      for (size_t i = 0; i < facts; ++i) {
        int64_t b = 0;
        switch (shape) {
          case kOneClass:
            b = 1;
            break;
          case kMajority:
            b = i + 1 == facts ? 3 : 2;
            break;
          case kDistinct:
            b = 100 + static_cast<int64_t>(i);
            break;
          case kSelfInconsistent:
            b = rng.UniformInt(0, 2);
            break;
          default:
            b = rng.UniformInt(0, 2);
        }
        const int64_t c = rng.UniformInt(0, 2);
        const int64_t d = shape == kSelfInconsistent && rng.Bernoulli(0.3)
                              ? c - 1
                              : c + rng.UniformInt(0, 1);
        db.Insert(Fact(r, {Value(key), Value(b), Value(c), Value(d)}));
      }
    }
  }
  return db;
}

std::vector<DenialConstraint> BucketShapeDcs(const Schema& schema) {
  std::vector<DenialConstraint> dcs;
  dcs.push_back(*ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.B)"));
  dcs.push_back(
      *ParseDc(schema, 0, "!(t.A = t'.A & t.B != t'.C & t.C != t'.B)"));
  dcs.push_back(DenialConstraint(
      {0, 1}, {Predicate(Operand{0, 0}, CompareOp::kEq, Operand{1, 0}),
               Predicate(Operand{0, 1}, CompareOp::kNe, Operand{1, 1})}));
  dcs.push_back(*ParseDc(
      schema, 0, "!(t.A = t'.A & t.B != t'.B & t.C <= t'.C & t.D >= t'.D)"));
  dcs.push_back(*ParseDc(schema, 1, "!(t.A = t'.A & t.C != t'.C)"));
  dcs.push_back(*ParseDc(schema, 0, "!(t.C > t.D)"));
  return dcs;
}

namespace {

const CompareOp kOrderOps[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                               CompareOp::kGe};
const CompareOp kAllOps[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};

// Random predicates over the two variables of a binary DC on (r0, r1),
// with their random draws sequenced (function arguments are evaluated in
// unspecified order), so a seed gives the same DC on every compiler.
class PredicateDraws {
 public:
  PredicateDraws(Rng& rng, const Schema& schema, RelationId r0,
                 RelationId r1)
      : rng_(rng), schema_(schema), rels_{r0, r1} {}

  AttrIndex Attr(uint32_t var) {
    return static_cast<AttrIndex>(
        rng_.UniformIndex(schema_.relation(rels_[var]).arity()));
  }
  Predicate Compare(uint32_t lhs_var, CompareOp op, uint32_t rhs_var) {
    const AttrIndex lhs_attr = Attr(lhs_var);
    const AttrIndex rhs_attr = Attr(rhs_var);
    return Predicate(Operand{lhs_var, lhs_attr}, op,
                     Operand{rhs_var, rhs_attr});
  }
  // A cross-variable comparison in a random operand orientation.
  Predicate Cross(CompareOp op) {
    const uint32_t lhs = static_cast<uint32_t>(rng_.UniformIndex(2));
    return Compare(lhs, op, 1 - lhs);
  }
  // The tail both generators share: maybe a cross equality key, then
  // maybe the extras (a `!=` when `with_ne`, a constant comparison, a
  // same-variable comparison), then a shuffle of the whole body.
  void AddKeyAndExtras(std::vector<Predicate>& preds, double key_p,
                       bool with_ne) {
    if (rng_.Bernoulli(key_p)) {
      const AttrIndex a = Attr(0);
      const AttrIndex b = rels_[0] == rels_[1] ? a : Attr(1);
      preds.emplace_back(Operand{0, a}, CompareOp::kEq, Operand{1, b});
    }
    if (with_ne && rng_.Bernoulli(0.3)) preds.push_back(Cross(CompareOp::kNe));
    if (rng_.Bernoulli(0.3)) {
      const uint32_t var = static_cast<uint32_t>(rng_.UniformIndex(2));
      const AttrIndex a = Attr(var);
      const CompareOp op = kAllOps[rng_.UniformIndex(6)];
      preds.emplace_back(Operand{var, a}, op, Value(rng_.UniformInt(0, 3)));
    }
    if (rng_.Bernoulli(0.3)) {
      const uint32_t var = static_cast<uint32_t>(rng_.UniformIndex(2));
      preds.push_back(Compare(var, kAllOps[rng_.UniformIndex(6)], var));
    }
    std::shuffle(preds.begin(), preds.end(), rng_.engine());
  }

 private:
  Rng& rng_;
  const Schema& schema_;
  const RelationId rels_[2];
};

}  // namespace

DenialConstraint RandomOrderDc(Rng& rng, const Schema& schema, RelationId r0,
                               RelationId r1, size_t num_order) {
  PredicateDraws draw(rng, schema, r0, r1);
  std::vector<Predicate> preds;
  for (size_t i = 0; i < num_order; ++i) {
    preds.push_back(draw.Cross(kOrderOps[rng.UniformIndex(4)]));
  }
  draw.AddKeyAndExtras(preds, 0.4, /*with_ne=*/true);
  return DenialConstraint({r0, r1}, std::move(preds));
}

DenialConstraint RandomNeDc(Rng& rng, const Schema& schema, RelationId r0,
                            RelationId r1, size_t num_ne, bool with_order) {
  PredicateDraws draw(rng, schema, r0, r1);
  std::vector<Predicate> preds;
  for (size_t i = 0; i < num_ne; ++i) {
    if (rng.Bernoulli(0.5)) {
      preds.push_back(draw.Cross(CompareOp::kNe));
      continue;
    }
    const uint32_t lhs = static_cast<uint32_t>(rng.UniformIndex(2));
    const AttrIndex a = draw.Attr(0);
    preds.emplace_back(Operand{lhs, a}, CompareOp::kNe, Operand{1 - lhs, a});
  }
  if (with_order) preds.push_back(draw.Cross(kOrderOps[rng.UniformIndex(4)]));
  draw.AddKeyAndExtras(preds, 0.5, /*with_ne=*/false);
  return DenialConstraint({r0, r1}, std::move(preds));
}

ScriptedWorkload::ScriptedWorkload(uint64_t seed,
                                   ScriptedWorkloadOptions options)
    : rng_(seed),
      options_(options),
      churn_counter_(options.churn_start) {}

RepairOperation ScriptedWorkload::Next(const Database& db) {
  return Next(db, options_.churn);
}

RepairOperation ScriptedWorkload::Next(const Database& db, bool churn) {
  const std::vector<FactId> ids = db.ids();
  auto draw = [&]() -> Value {
    if (churn) {
      return Value("churn_" + std::to_string(churn_counter_++));
    }
    return Value(rng_.UniformInt(0, options_.domain - 1));
  };
  const size_t arity = db.schema().relation(options_.relation).arity();
  const size_t kind = ids.empty() ? 1 : rng_.UniformIndex(4);
  if (kind == 0) {
    return RepairOperation::Deletion(ids[rng_.UniformIndex(ids.size())]);
  }
  if (kind == 1) {
    std::vector<Value> values;
    values.reserve(arity);
    for (size_t a = 0; a < arity; ++a) values.push_back(draw());
    return RepairOperation::Insertion(
        Fact(options_.relation, std::move(values)));
  }
  if (kind == 2) {  // duplicate an existing fact (distinct id, equal cells)
    return RepairOperation::Insertion(
        db.fact(ids[rng_.UniformIndex(ids.size())]));
  }
  const FactId id = ids[rng_.UniformIndex(ids.size())];
  const AttrIndex attr = static_cast<AttrIndex>(rng_.UniformIndex(arity));
  return RepairOperation::Update(id, attr, draw());
}

}  // namespace dbim::testing
