// Copyright (c) the SLADE reproduction authors.
// The budget-constrained dual of SLADE (our extension): instead of
// "reach reliability t at minimum cost", answer "how much reliability can
// a fixed budget buy?" -- the question a requester with a grant line item
// actually asks. Not in the paper, but a direct corollary of its machinery:
// decomposition cost is non-decreasing in the threshold, so the maximal
// affordable threshold can be found by bisection over Algorithm 3.

#ifndef SLADE_SOLVER_BUDGET_SOLVER_H_
#define SLADE_SOLVER_BUDGET_SOLVER_H_

#include "solver/solver.h"

namespace slade {

/// \brief Options for MaxReliabilityUnderBudget.
struct BudgetOptions {
  /// Bisection iterations over the log-threshold; 40 pins theta to ~1e-12
  /// relative precision.
  int bisection_iterations = 40;
  /// Search range for the common threshold.
  double t_lo = 0.5;
  double t_hi = 0.995;
  SolverOptions solver_options;
};

/// \brief Result of the budget search.
struct BudgetResult {
  /// The largest threshold whose plan fits the budget.
  double threshold = 0.0;
  /// The plan achieving it.
  ColumnarPlan plan;
  /// Its cost (<= budget).
  double cost = 0.0;
};

/// \brief Finds the maximum homogeneous reliability threshold `t` such
/// that an OPQ-Based decomposition of `n` atomic tasks costs at most
/// `budget`, by bisection on the log-threshold.
///
/// Plan cost under Algorithm 3 is non-decreasing in t up to the
/// leftover-handling steps, which can make it locally flat but never
/// reverses the global trend; the search therefore tracks the best
/// *verified-affordable* threshold rather than trusting monotonicity
/// blindly. Returns Infeasible if even `t_lo` exceeds the budget.
Result<BudgetResult> MaxReliabilityUnderBudget(
    size_t n, const BinProfile& profile, double budget,
    const BudgetOptions& options = {});

}  // namespace slade

#endif  // SLADE_SOLVER_BUDGET_SOLVER_H_
