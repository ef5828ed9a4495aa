// Copyright (c) the SLADE reproduction authors.
// The OPQ-Extended heterogeneous solver (paper Algorithm 5, Theorem 3).

#ifndef SLADE_SOLVER_OPQ_EXTENDED_SOLVER_H_
#define SLADE_SOLVER_OPQ_EXTENDED_SOLVER_H_

#include "solver/solver.h"

namespace slade {

/// \brief OPQ-Extended: partitions atomic tasks into power-of-two
/// log-threshold groups (Algorithm 4), then runs the Algorithm 3
/// assignment per group with that group's optimal priority queue, and
/// merges the per-group plans. Approximation ratio
/// `2 * ceil(log(theta_max/theta_min)) * log n` (Theorem 3).
///
/// On homogeneous input the partition collapses to a single group built at
/// exactly the common threshold, so OPQ-Extended degenerates to OPQ-Based.
class OpqExtendedSolver final : public Solver {
 public:
  explicit OpqExtendedSolver(const SolverOptions& options = {})
      : options_(options) {}

  std::string name() const override { return "OPQ-Extended"; }

  Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                             const BinProfile& profile) override;

 private:
  SolverOptions options_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_OPQ_EXTENDED_SOLVER_H_
