// Copyright (c) the SLADE reproduction authors.
// The Greedy heuristic (paper Algorithm 1).

#ifndef SLADE_SOLVER_GREEDY_SOLVER_H_
#define SLADE_SOLVER_GREEDY_SOLVER_H_

#include "solver/solver.h"

namespace slade {

/// \brief Greedy cost-confidence-ratio solver (Algorithm 1).
///
/// Repeatedly picks the task bin minimizing the cost-confidence ratio
/// (Equation 4)
///
///   ratio(l) = c_l / min(l * w_l, sum of the l largest threshold residuals)
///
/// and assigns it to the l atomic tasks with the largest residuals, until
/// every residual reaches zero. Works for both the homogeneous and the
/// heterogeneous SLADE problem (Section 6: only the initial residuals
/// differ).
///
/// Two equivalent execution strategies are provided:
///  * `kNaive` re-sorts all residuals every iteration, exactly as written
///    in the paper (O(n log n) per iteration);
///  * `kFast` (default) exploits that subtracting the same w from the
///    top-l residuals keeps both halves sorted, so a linear merge suffices,
///    and batches runs of identical residuals (homogeneous inputs) into
///    repeated identical decisions.
///
/// The two strategies produce identical plans (see greedy_solver_test.cc);
/// kNaive exists as the reference for that equivalence and for the
/// ablation benchmark.
///
/// Implementation notes (deviations from the paper's pseudocode, both
/// behaviour-preserving):
///  * residuals are clamped at zero once satisfied (a satisfied task
///    contributes nothing useful to the Equation 4 denominator);
///  * a selected bin is filled only with still-unsatisfied tasks; the
///    paper would pad it with satisfied ones, which changes neither cost
///    nor feasibility.
class GreedySolver final : public Solver {
 public:
  enum class Strategy { kFast, kNaive };

  explicit GreedySolver(Strategy strategy = Strategy::kFast,
                        const SolverOptions& options = {})
      : strategy_(strategy), options_(options) {}

  std::string name() const override { return "Greedy"; }

  Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                             const BinProfile& profile) override;

 private:
  Strategy strategy_;
  SolverOptions options_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_GREEDY_SOLVER_H_
