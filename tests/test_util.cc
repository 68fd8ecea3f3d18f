#include "test_util.h"

#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/rng.h"

namespace dbim::testing {

std::shared_ptr<const Schema> MakeAbcSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddRelation("R", {"A", "B", "C"});
  return schema;
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
      if (dc.MakesSelfInconsistent(facts[i])) contradictory.insert(ids[i]);
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
      if (typed && dc.BodyHolds(assignment)) {
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

std::vector<std::vector<FactId>> SortedSubsets(const ViolationSet& v) {
  std::vector<std::vector<FactId>> subsets = v.minimal_subsets();
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
