#ifndef DBIM_TESTS_ORACLE_REPAIR_ORACLE_H_
#define DBIM_TESTS_ORACLE_REPAIR_ORACLE_H_

#include <vector>

#include "constraints/dc.h"
#include "relational/database.h"

namespace dbim::testing {

/// Whether D minus `deleted` satisfies every constraint of `dcs`: no
/// assignment of the remaining facts (repetition allowed, so
/// self-inconsistent facts count) makes a body hold, evaluated on
/// materialized Facts with BodyHolds (test_util.h). Exhaustive over
/// |D|^k assignments per k-ary constraint.
bool SatisfiesAfterDeleting(const std::vector<DenialConstraint>& dcs,
                            const Database& db,
                            const std::vector<FactId>& deleted);

/// I_R by its definition (paper Section 5.2, subset repairs): the minimum
/// total deletion cost over every set of facts whose deletion leaves D
/// satisfying `dcs`. Enumerates all 2^|D| deletion sets, so |D| <= ~16.
double NaiveMinRepair(const std::vector<DenialConstraint>& dcs,
                      const Database& db);

/// I_lin_R by its definition: the optimum of the LP relaxation of the
/// paper's Figure 2 — one variable in [0, 1] per fact priced at its
/// deletion cost, and one covering row per minimal inconsistent subset of
/// NaiveMinimalSubsets, singletons included — solved by the simplex.
double NaiveLinRepair(const std::vector<DenialConstraint>& dcs,
                      const Database& db);

}  // namespace dbim::testing

#endif  // DBIM_TESTS_ORACLE_REPAIR_ORACLE_H_
