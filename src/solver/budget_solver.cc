#include "solver/budget_solver.h"

#include "common/math_util.h"
#include "solver/opq_solver.h"

namespace slade {

Result<BudgetResult> MaxReliabilityUnderBudget(
    size_t n, const BinProfile& profile, double budget,
    const BudgetOptions& options) {
  if (n == 0) return Status::InvalidArgument("need n > 0 tasks");
  if (!(budget > 0.0)) {
    return Status::InvalidArgument("budget must be positive");
  }
  if (!(options.t_lo > 0.0 && options.t_hi < 1.0 &&
        options.t_lo < options.t_hi)) {
    return Status::InvalidArgument("need 0 < t_lo < t_hi < 1");
  }

  OpqSolver solver(options.solver_options);
  auto cost_at = [&](double t) -> Result<std::pair<double, ColumnarPlan>> {
    SLADE_ASSIGN_OR_RETURN(CrowdsourcingTask task,
                           CrowdsourcingTask::Homogeneous(n, t));
    SLADE_ASSIGN_OR_RETURN(ColumnarPlan plan,
                           solver.Solve(task, profile));
    const double cost = plan.TotalCost(profile);
    return std::make_pair(cost, std::move(plan));
  };

  // Feasibility of the floor.
  SLADE_ASSIGN_OR_RETURN(auto floor_solution, cost_at(options.t_lo));
  if (floor_solution.first > budget) {
    return Status::Infeasible(
        "even t=" + std::to_string(options.t_lo) + " costs " +
        std::to_string(floor_solution.first) + " > budget " +
        std::to_string(budget));
  }

  BudgetResult best;
  best.threshold = options.t_lo;
  best.cost = floor_solution.first;
  best.plan = std::move(floor_solution.second);

  // Bisect in the log domain, where thresholds compose additively.
  double lo = LogReduction(options.t_lo);
  double hi = LogReduction(options.t_hi);
  for (int i = 0; i < options.bisection_iterations; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double t = InverseLogReduction(mid);
    SLADE_ASSIGN_OR_RETURN(auto solution, cost_at(t));
    if (solution.first <= budget) {
      lo = mid;
      if (t > best.threshold) {
        best.threshold = t;
        best.cost = solution.first;
        best.plan = std::move(solution.second);
      }
    } else {
      hi = mid;
    }
  }
  return best;
}

}  // namespace slade
