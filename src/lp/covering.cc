#include "lp/covering.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/timer.h"

namespace dbim {

namespace {

constexpr double kEps = 1e-9;

LpModel BuildRelaxation(const CoveringProblem& problem,
                        const std::vector<char>& var_state,
                        const std::vector<std::vector<uint32_t>>& sets) {
  // var_state: 0 free, 1 chosen, 2 excluded. Chosen variables have already
  // removed their sets; excluded ones are dropped from rows.
  LpModel model;
  std::vector<int> lp_var(problem.costs.size(), -1);
  for (uint32_t i = 0; i < problem.costs.size(); ++i) {
    if (var_state[i] == 0) {
      lp_var[i] = model.AddVariable(problem.costs[i], 1.0);
    }
  }
  for (const auto& set : sets) {
    LpConstraint c;
    c.sense = LpSense::kGreaterEq;
    c.rhs = 1.0;
    for (const uint32_t v : set) {
      if (lp_var[v] >= 0) c.terms.emplace_back(lp_var[v], 1.0);
    }
    model.AddConstraint(std::move(c));
  }
  return model;
}

class CoveringSolver {
 public:
  CoveringSolver(const CoveringProblem& problem,
                 const CoveringOptions& options)
      : problem_(problem), deadline_(options.deadline_seconds) {}

  CoveringResult Solve(const std::vector<double>& root_x) {
    result_.chosen.assign(problem_.costs.size(), false);
    // Greedy incumbent.
    std::vector<bool> greedy = GreedyCover();
    best_cover_ = greedy;
    best_value_ = Weight(greedy);

    std::vector<char> var_state(problem_.costs.size(), 0);
    Recurse(var_state, problem_.sets, 0.0, &root_x);

    result_.value = best_value_;
    result_.chosen = best_cover_;
    return result_;
  }

 private:
  double Weight(const std::vector<bool>& chosen) const {
    double total = 0.0;
    for (uint32_t i = 0; i < chosen.size(); ++i) {
      if (chosen[i]) total += problem_.costs[i];
    }
    return total;
  }

  std::vector<bool> GreedyCover() const {
    std::vector<bool> chosen(problem_.costs.size(), false);
    std::vector<char> covered(problem_.sets.size(), 0);
    size_t remaining = problem_.sets.size();
    while (remaining > 0) {
      // Pick the variable covering the most uncovered sets per unit cost.
      std::vector<size_t> gain(problem_.costs.size(), 0);
      for (size_t s = 0; s < problem_.sets.size(); ++s) {
        if (covered[s]) continue;
        for (const uint32_t v : problem_.sets[s]) ++gain[v];
      }
      uint32_t best = UINT32_MAX;
      double best_ratio = -1.0;
      for (uint32_t v = 0; v < problem_.costs.size(); ++v) {
        if (chosen[v] || gain[v] == 0) continue;
        const double ratio =
            static_cast<double>(gain[v]) / problem_.costs[v];
        if (ratio > best_ratio) {
          best_ratio = ratio;
          best = v;
        }
      }
      DBIM_CHECK(best != UINT32_MAX);
      chosen[best] = true;
      for (size_t s = 0; s < problem_.sets.size(); ++s) {
        if (covered[s]) continue;
        if (std::binary_search(problem_.sets[s].begin(),
                               problem_.sets[s].end(), best)) {
          covered[s] = 1;
          --remaining;
        }
      }
    }
    return chosen;
  }

  // `sets` holds the still-uncovered sets with excluded variables intact
  // (they are skipped during propagation). `root_x`, at the root only, is
  // the relaxation's optimum (see SolveCoveringIlp), and null elsewhere.
  void Recurse(std::vector<char> var_state,
               std::vector<std::vector<uint32_t>> sets, double cost,
               const std::vector<double>* root_x) {
    ++result_.bb_nodes;
    if (deadline_.Expired()) {
      result_.optimal = false;
      return;
    }

    // Unit propagation: a set whose free variables reduce to one forces it.
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<std::vector<uint32_t>> next_sets;
      for (const auto& set : sets) {
        uint32_t last_free = UINT32_MAX;
        size_t free_count = 0;
        bool already_covered = false;
        for (const uint32_t v : set) {
          if (var_state[v] == 1) {
            already_covered = true;
            break;
          }
          if (var_state[v] == 0) {
            last_free = v;
            ++free_count;
          }
        }
        if (already_covered) continue;
        if (free_count == 0) return;  // infeasible branch
        if (free_count == 1) {
          var_state[last_free] = 1;
          cost += problem_.costs[last_free];
          changed = true;
          continue;
        }
        next_sets.push_back(set);
      }
      sets = std::move(next_sets);
      if (cost >= best_value_ - kEps) return;
    }

    if (sets.empty()) {
      if (cost < best_value_ - kEps) {
        best_value_ = cost;
        best_cover_.assign(var_state.size(), false);
        for (uint32_t v = 0; v < var_state.size(); ++v) {
          if (var_state[v] == 1) best_cover_[v] = true;
        }
      }
      return;
    }

    // LP bound + branching variable (most fractional, ties by cost).
    double lower = cost;
    std::vector<double> x_full(var_state.size(), 0.0);
    if (root_x != nullptr) {
      for (uint32_t v = 0; v < var_state.size(); ++v) {
        if (var_state[v] != 0) continue;
        x_full[v] = (*root_x)[v];
        lower += problem_.costs[v] * x_full[v];
      }
    } else {
      const LpModel relaxation = BuildRelaxation(problem_, var_state, sets);
      const LpSolution lp = SolveLp(relaxation);
      ++result_.lp_solves;
      if (lp.status == LpStatus::kInfeasible) return;
      if (lp.status == LpStatus::kOptimal) {
        lower += lp.objective;
        int k = 0;
        for (uint32_t v = 0; v < var_state.size(); ++v) {
          if (var_state[v] == 0) x_full[v] = lp.x[static_cast<size_t>(k++)];
        }
      }
    }
    if (lower >= best_value_ - kEps) return;

    uint32_t branch = UINT32_MAX;
    double best_frac = -1.0;
    for (uint32_t v = 0; v < var_state.size(); ++v) {
      if (var_state[v] != 0) continue;
      bool used = false;
      for (const auto& set : sets) {
        if (std::binary_search(set.begin(), set.end(), v)) {
          used = true;
          break;
        }
      }
      if (!used) continue;
      const double frac = 0.5 - std::fabs(x_full[v] - 0.5);
      if (frac > best_frac) {
        best_frac = frac;
        branch = v;
      }
    }
    if (branch == UINT32_MAX) return;  // no set touches a free var (covered)

    // Branch x = 1 first: drives toward feasibility.
    {
      std::vector<char> state = var_state;
      state[branch] = 1;
      Recurse(std::move(state), sets, cost + problem_.costs[branch], nullptr);
    }
    {
      std::vector<char> state = var_state;
      state[branch] = 2;
      Recurse(std::move(state), std::move(sets), cost, nullptr);
    }
  }

  const CoveringProblem& problem_;
  Deadline deadline_;
  CoveringResult result_;
  double best_value_ = 0.0;
  std::vector<bool> best_cover_;
};

}  // namespace

CoveringResult SolveCoveringIlp(const CoveringProblem& problem,
                                const std::vector<double>& root_x,
                                const CoveringOptions& options) {
  DBIM_CHECK(root_x.size() == problem.costs.size());
  for (const auto& set : problem.sets) {
    DBIM_CHECK(!set.empty());
    DBIM_CHECK(std::is_sorted(set.begin(), set.end()));
  }
  if (problem.sets.empty()) {
    CoveringResult r;
    r.chosen.assign(problem.costs.size(), false);
    return r;
  }
  CoveringSolver solver(problem, options);
  return solver.Solve(root_x);
}

LpSolution SolveCoveringLpRelaxation(const CoveringProblem& problem) {
  const std::vector<char> all_free(problem.costs.size(), 0);
  const LpModel model = BuildRelaxation(problem, all_free, problem.sets);
  return SolveLp(model);
}

}  // namespace dbim
