// Copyright (c) the SLADE reproduction authors.
// Exact DP for the relaxed SLADE variant (paper Section 4.2).

#ifndef SLADE_SOLVER_RELAXED_DP_SOLVER_H_
#define SLADE_SOLVER_RELAXED_DP_SOLVER_H_

#include "solver/solver.h"

namespace slade {

/// \brief Exact polynomial-time solver for the relaxed SLADE variant where
/// every bin confidence already meets the largest threshold
/// (`r_l >= t_max` for all l, Section 4.2).
///
/// Under the relaxation each atomic task is satisfied by *any single* bin
/// containing it, so the problem collapses to covering n tasks by bins of
/// capacities 1..m at minimum cost -- the ROD CUTTING recurrence
/// `DP[j] = min_l DP[j - min(l, j)] + c_l`, solved in O(n m) time.
///
/// Returns InvalidArgument if the precondition does not hold (the relaxed
/// DP would silently under-provision reliability otherwise).
class RelaxedDpSolver final : public Solver {
 public:
  explicit RelaxedDpSolver(const SolverOptions& options = {}) {
    (void)options;
  }

  std::string name() const override { return "Relaxed-DP"; }

  Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                             const BinProfile& profile) override;
};

}  // namespace slade

#endif  // SLADE_SOLVER_RELAXED_DP_SOLVER_H_
