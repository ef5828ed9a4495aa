// Copyright (c) the SLADE reproduction authors.
// The Section 4.3 baseline: SLADE -> CIP reduction + LP rounding.

#ifndef SLADE_SOLVER_BASELINE_SOLVER_H_
#define SLADE_SOLVER_BASELINE_SOLVER_H_

#include "solver/solver.h"

namespace slade {

/// \brief Baseline solver via the covering-integer-programming reduction
/// (Section 4.3).
///
/// The full reduction enumerates `sum_l C(n, l)` combination instances,
/// which the paper itself declares impractical -- "we only generate part of
/// the combination instances for performance evaluation". We follow the
/// same regime:
///
///  * the task set is partitioned into chunks of `baseline_chunk_size`
///    atomic tasks and one CIP is built per chunk (a plan for a chunk is
///    always a valid sub-plan of the whole instance because atomic tasks
///    are independent);
///  * per chunk, the generated columns are: every singleton (guaranteeing
///    feasibility), consecutive tilings at each cardinality, and
///    `baseline_columns_per_cardinality` random subsets per cardinality;
///  * each chunk CIP is solved by LP relaxation (our simplex) plus
///    randomized rounding with greedy repair (cip.h).
///
/// On homogeneous input every full chunk has an identical CIP, so it is
/// solved once and the integer solution is replicated across chunks (same
/// plan, a fraction of the work). Heterogeneous chunks are solved
/// individually.
class BaselineSolver final : public Solver {
 public:
  explicit BaselineSolver(const SolverOptions& options = {})
      : options_(options) {}

  std::string name() const override { return "Baseline"; }

  Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                             const BinProfile& profile) override;

 private:
  SolverOptions options_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_BASELINE_SOLVER_H_
