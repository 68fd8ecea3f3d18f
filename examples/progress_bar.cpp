// Progress indication for data repairing — the paper's motivating use case
// (Section 1). A noisy Hospital dataset is repaired one deletion at a time
// (always removing a fact from the current minimum repair); after each
// operation the measures are re-evaluated and rendered as progress bars.
//
// The loop runs on a MeasureSession: each deletion goes through
// Apply(handle, op), which maintains the violation state incrementally, so
// a re-measurement costs a snapshot + the measures instead of a full
// re-detection per step.
//
// What to observe (the paper's point): I_lin_R and I_R tick down smoothly
// — bounded continuity + progression — so they make a faithful progress
// bar, while I_d sits at 100% until the very last step and I_P can jump.
//
//   ./progress_bar [facts] [noise-steps]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "datagen/datasets.h"
#include "datagen/noise.h"
#include "measures/repair_measures.h"
#include "measures/session.h"
#include "relational/operations.h"

namespace {

std::string Bar(double fraction, int width = 24) {
  const int filled = static_cast<int>(fraction * width + 0.5);
  std::string bar;
  for (int i = 0; i < width; ++i) bar += i < filled ? '#' : '.';
  return bar;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dbim;
  const size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 300;
  const int noise_steps = argc > 2 ? std::atoi(argv[2]) : 25;

  const Dataset dataset = MakeDataset(DatasetId::kHospital, n, 1);
  const CoNoiseGenerator noise(dataset.data, dataset.constraints);

  Database noisy = dataset.data;
  Rng rng(11);
  for (int i = 0; i < noise_steps; ++i) noise.Step(noisy, rng);

  SessionOptions options;
  options.registry.include_mc = false;
  options.only = {"I_d", "I_P", "I_lin_R"};
  MeasureSession session(dataset.schema, dataset.constraints, options);
  const DbHandle handle = session.Register(noisy);

  // One context per step, fed from the session's maintained violation
  // state: the measure reads and the repair planner share its conflict
  // graph and LP solve.
  const auto value_of = [](const std::vector<MeasureResult>& results,
                           const char* name) {
    for (const MeasureResult& r : results) {
      if (r.name == name) return r.value;
    }
    return 0.0;
  };

  MeasureContext initial(session.detector(), session.db(handle),
                         session.Violations(handle));
  const std::vector<MeasureResult> first = session.Evaluate(initial);
  const double total_lin = value_of(first, "I_lin_R");
  const double total_ip = value_of(first, "I_P");
  if (total_lin == 0.0) {
    std::printf("already consistent, nothing to repair\n");
    return 0;
  }
  std::printf("repairing %zu facts, initial I_lin_R = %.2f, I_P = %.0f\n\n",
              session.db(handle).size(), total_lin, total_ip);

  MinRepairMeasure repair;
  int step = 0;
  while (true) {
    MeasureContext context(session.detector(), session.db(handle),
                           session.Violations(handle));
    const std::vector<MeasureResult> results = session.Evaluate(context);
    const double lin_now = value_of(results, "I_lin_R");
    const double ip_now = value_of(results, "I_P");
    const double drastic_now = value_of(results, "I_d");
    std::printf("step %3d  I_lin_R [%s] %5.1f%%   I_P [%s] %5.1f%%   I_d=%g\n",
                step, Bar(1.0 - lin_now / total_lin).c_str(),
                100.0 * (1.0 - lin_now / total_lin),
                Bar(total_ip > 0 ? 1.0 - ip_now / total_ip : 1.0).c_str(),
                100.0 * (total_ip > 0 ? 1.0 - ip_now / total_ip : 1.0),
                drastic_now);
    if (lin_now == 0.0) break;
    // Repair action: delete one fact from the current minimum repair.
    const std::vector<FactId> optimal = repair.OptimalRepair(context);
    if (optimal.empty()) break;
    session.Apply(handle, RepairOperation::Deletion(optimal.front()));
    ++step;
  }
  std::printf("\nconsistent after %d deletions\n", step);
  return 0;
}
