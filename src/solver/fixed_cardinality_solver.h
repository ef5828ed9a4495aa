// Copyright (c) the SLADE reproduction authors.
// The prior-practice strategy SLADE argues against (paper Section 1):
// "Previous works either set the fixed cardinality of a task bin [8], [9],
// [10] or adopt simple heuristics to determine a single cardinality for
// the entire large-scale crowdsourcing task."

#ifndef SLADE_SOLVER_FIXED_CARDINALITY_SOLVER_H_
#define SLADE_SOLVER_FIXED_CARDINALITY_SOLVER_H_

#include "solver/solver.h"

namespace slade {

/// \brief Decomposes the whole task using bins of a SINGLE cardinality.
///
/// With cardinality `l` fixed, each atomic task a_i needs
/// `k_i = ceil(theta_i / w_l)` bin memberships; tasks are packed
/// level-by-level into full bins. Two modes:
///
///  * explicit cardinality (`FixedCardinalitySolver(l)`) — the CrowdDB /
///    Deco-style hard-coded bin size;
///  * auto (`l = 0`, default) — the "simple heuristic": pick the single
///    cardinality with the best analytic cost for the whole task, i.e.
///    minimizing `c_l * ceil(theta_max / w_l) / l` per task. This is the
///    strongest member of the single-cardinality family, so SLADE's win
///    over it lower-bounds its win over prior practice.
///
/// Used by benchmarks as the prior-practice reference series; it is a
/// legitimate general-purpose solver as well (always feasible).
class FixedCardinalitySolver final : public Solver {
 public:
  /// `cardinality == 0` selects the best single cardinality automatically.
  explicit FixedCardinalitySolver(uint32_t cardinality = 0)
      : cardinality_(cardinality) {}

  std::string name() const override;

  /// Fails with OutOfRange if an explicit cardinality is not in the
  /// profile.
  Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                             const BinProfile& profile) override;

  /// The auto-selection rule, exposed for tests/benchmarks: the
  /// cardinality minimizing per-task cost at threshold `theta`.
  static uint32_t BestCardinality(const BinProfile& profile, double theta);

 private:
  uint32_t cardinality_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_FIXED_CARDINALITY_SOLVER_H_
