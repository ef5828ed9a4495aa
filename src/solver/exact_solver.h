// Copyright (c) the SLADE reproduction authors.
// Exact reference solvers, used to validate the approximation algorithms
// on small instances (SLADE is NP-hard, Theorem 1, so these do not scale).

#ifndef SLADE_SOLVER_EXACT_SOLVER_H_
#define SLADE_SOLVER_EXACT_SOLVER_H_

#include <cstdint>

#include "solver/combination.h"
#include "solver/solver.h"

namespace slade {

/// \brief Minimum-cost multiset of bins whose summed log weights reach
/// `theta` -- the optimal way to satisfy ONE atomic task (an unbounded
/// min-knapsack covering problem, solved by branch-and-bound with the
/// fractional cost-per-weight lower bound).
///
/// Multiplying by n, this equals the LP lower bound `n * OPQ_1.UC` used in
/// the Theorem 2 proof, so tests compare it against the OPQ front.
struct SingleTaskOptimum {
  /// Chosen (cardinality, count) parts.
  Combination::Parts parts;
  /// Per-task cost of the parts, `sum count * c_l / l`.
  double unit_cost = 0.0;
};
Result<SingleTaskOptimum> OptimalSingleTaskCombination(
    const BinProfile& profile, double theta,
    uint64_t node_budget = 10'000'000);

/// \brief Exhaustive (Dijkstra / uniform-cost search) exact SLADE solver
/// for tiny instances.
///
/// States are the vectors of outstanding log residuals; actions post one
/// bin of some cardinality filled with some subset of still-unsatisfied
/// tasks. Exponential in every direction -- intended for n <= ~6 and
/// small profiles in tests and ablation benchmarks only.
class ExactSmallSolver final : public Solver {
 public:
  explicit ExactSmallSolver(uint64_t state_budget = 2'000'000)
      : state_budget_(state_budget) {}

  std::string name() const override { return "Exact"; }

  /// Fails with ResourceExhausted when the state budget is hit and with
  /// InvalidArgument for n > 10 (guarding against accidental misuse).
  Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                             const BinProfile& profile) override;

 private:
  uint64_t state_budget_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_EXACT_SOLVER_H_
