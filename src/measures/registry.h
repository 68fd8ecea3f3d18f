#ifndef DBIM_MEASURES_REGISTRY_H_
#define DBIM_MEASURES_REGISTRY_H_

#include <memory>
#include <string>
#include <vector>

#include "measures/basic_measures.h"
#include "measures/mc_measures.h"
#include "measures/measure.h"
#include "measures/repair_measures.h"

namespace dbim {

struct RegistryOptions {
  /// Budget per I_MC evaluation (NaN past it).
  double mc_deadline_seconds = 60.0;

  /// Budget per I_R branch & bound (upper bound past it).
  double repair_deadline_seconds = 0.0;

  /// Include I_MC and I'_MC. The trajectory benches on 10K-tuple samples
  /// exclude them, as the paper does (they time out beyond toy sizes).
  bool include_mc = true;

  /// Construct only the measures named here (exact name() match, e.g.
  /// "I_MI"); empty = the full registry. Unknown names are ignored,
  /// Table-2 row order is preserved, and unselected measures are never
  /// constructed — the streaming/approx paths evaluate a measure subset
  /// without paying for the rest.
  std::vector<std::string> only;

  // Builder-style setters, mirroring SessionOptions (each returns *this).
  RegistryOptions& WithRepairDeadline(double seconds) {
    repair_deadline_seconds = seconds;
    return *this;
  }
  RegistryOptions& WithIncludeMC(bool include) {
    include_mc = include;
    return *this;
  }
  RegistryOptions& WithMeasure(std::string name) {
    only.push_back(std::move(name));
    return *this;
  }
};

/// All measures of the paper's Table 2, in its row order:
/// I_d, I_MI, I_P, [I_MC, I'_MC,] I_R, I_lin_R — restricted to
/// `options.only` when that filter is non-empty.
std::vector<std::unique_ptr<InconsistencyMeasure>> CreateMeasures(
    const RegistryOptions& options = {});

}  // namespace dbim

#endif  // DBIM_MEASURES_REGISTRY_H_
