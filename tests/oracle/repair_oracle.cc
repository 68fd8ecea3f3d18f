#include "oracle/repair_oracle.h"

#include <algorithm>
#include <cstdint>

#include "common/check.h"
#include "lp/simplex.h"
#include "test_util.h"

namespace dbim::testing {

namespace {

// The support of every satisfying assignment of every constraint, as a
// mask over the positions of db.ids(): D' is consistent iff no support is
// a subset of D'.
std::vector<uint64_t> SupportMasks(const std::vector<DenialConstraint>& dcs,
                                   const Database& db) {
  const std::vector<FactId> ids = db.ids();
  DBIM_CHECK(ids.size() <= 63);
  std::vector<Fact> facts;
  for (const FactId id : ids) facts.push_back(db.fact(id));
  const size_t n = facts.size();
  std::vector<uint64_t> supports;
  for (const DenialConstraint& dc : dcs) {
    const size_t k = dc.num_vars();
    if (n == 0) break;
    std::vector<size_t> pick(k, 0);  // odometer over [0, n)^k
    std::vector<const Fact*> assignment(k);
    for (;;) {
      bool typed = true;
      uint64_t mask = 0;
      for (size_t v = 0; v < k; ++v) {
        assignment[v] = &facts[pick[v]];
        typed = typed && assignment[v]->relation() ==
                             dc.var_relation(static_cast<uint32_t>(v));
        mask |= uint64_t{1} << pick[v];
      }
      if (typed && BodyHolds(dc, assignment)) supports.push_back(mask);
      size_t v = 0;
      while (v < k && ++pick[v] == n) pick[v++] = 0;
      if (v == k) break;
    }
  }
  std::sort(supports.begin(), supports.end());
  supports.erase(std::unique(supports.begin(), supports.end()),
                 supports.end());
  return supports;
}

bool Consistent(const std::vector<uint64_t>& supports, uint64_t kept) {
  for (const uint64_t s : supports) {
    if ((s & kept) == s) return false;
  }
  return true;
}

}  // namespace

bool SatisfiesAfterDeleting(const std::vector<DenialConstraint>& dcs,
                            const Database& db,
                            const std::vector<FactId>& deleted) {
  const std::vector<FactId> ids = db.ids();
  uint64_t kept = 0;
  for (size_t i = 0; i < ids.size(); ++i) {
    if (std::find(deleted.begin(), deleted.end(), ids[i]) == deleted.end()) {
      kept |= uint64_t{1} << i;
    }
  }
  return Consistent(SupportMasks(dcs, db), kept);
}

double NaiveMinRepair(const std::vector<DenialConstraint>& dcs,
                      const Database& db) {
  const std::vector<FactId> ids = db.ids();
  DBIM_CHECK(ids.size() <= 20);
  const std::vector<uint64_t> supports = SupportMasks(dcs, db);
  double best = -1.0;
  for (uint64_t kept = 0; kept < (uint64_t{1} << ids.size()); ++kept) {
    if (!Consistent(supports, kept)) continue;
    double cost = 0.0;
    for (size_t i = 0; i < ids.size(); ++i) {
      if (((kept >> i) & 1) == 0) cost += db.deletion_cost(ids[i]);
    }
    if (best < 0.0 || cost < best) best = cost;
  }
  return best;
}

double NaiveLinRepair(const std::vector<DenialConstraint>& dcs,
                      const Database& db) {
  const std::vector<FactId> ids = db.ids();
  LpModel model;
  for (const FactId id : ids) model.AddVariable(db.deletion_cost(id), 1.0);
  for (const std::vector<FactId>& subset :
       NaiveMinimalSubsets(dcs, db).subsets) {
    LpConstraint row;
    row.sense = LpSense::kGreaterEq;
    row.rhs = 1.0;
    for (const FactId id : subset) {
      const auto it = std::find(ids.begin(), ids.end(), id);
      row.terms.emplace_back(static_cast<int>(it - ids.begin()), 1.0);
    }
    model.AddConstraint(std::move(row));
  }
  if (model.constraints.empty()) return 0.0;
  const LpSolution lp = SolveLp(model);
  DBIM_CHECK(lp.status == LpStatus::kOptimal);
  return lp.objective;
}

}  // namespace dbim::testing
