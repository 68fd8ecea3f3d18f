#include "measures/basic_measures.h"

namespace dbim {

double DrasticMeasure::Evaluate(MeasureContext& context) const {
  return context.violations().empty() ? 0.0 : 1.0;
}

double MiCountMeasure::Evaluate(MeasureContext& context) const {
  return static_cast<double>(context.violations().num_minimal_subsets());
}

double ProblematicFactsMeasure::Evaluate(MeasureContext& context) const {
  // The conflict graph's vertices are exactly the problematic facts.
  return static_cast<double>(context.conflict_graph().num_vertices());
}

double MinimalViolationsMeasure::Evaluate(MeasureContext& context) const {
  return static_cast<double>(context.violations().num_minimal_violations());
}

}  // namespace dbim
