// Copyright (c) the SLADE reproduction authors.
// End-to-end execution of a decomposition plan on the simulated platform.

#ifndef SLADE_SIMULATOR_EXECUTOR_H_
#define SLADE_SIMULATOR_EXECUTOR_H_

#include <cstdint>
#include <vector>

#include "binmodel/task.h"
#include "simulator/platform.h"
#include "solver/plan_arena.h"

namespace slade {

/// \brief Measured outcome of executing a plan.
///
/// The paper's reliability target is "no false negative": a positive atomic
/// task must collect at least one "yes" across its assigned bins ("any
/// image with at least one yes will be further scrutinised", Example 1).
/// The executor therefore reports the empirical per-positive-task hit rate
/// alongside the spend.
struct ExecutionReport {
  /// Fraction of ground-truth-positive atomic tasks that received at least
  /// one positive answer (the empirical counterpart of Definition 2).
  double positive_recall = 0.0;
  /// Number of ground-truth-positive atomic tasks.
  uint64_t positives = 0;
  /// Positives that were missed by every assigned bin (false negatives).
  uint64_t false_negatives = 0;
  /// Total incentives paid (== plan cost, every copy is one paid worker).
  double total_cost = 0.0;
  /// Bin instances posted.
  uint64_t bins_posted = 0;
  /// Bins that exceeded the platform timeout.
  uint64_t overtime_bins = 0;
  /// Per-task flag: true iff the task collected >= 1 positive answer
  /// (only meaningful for positive tasks).
  std::vector<bool> detected;
};

/// \brief Executes `plan` against `platform`.
///
/// `ground_truth[i]` is the true label of atomic task i; `profile` supplies
/// the incentive cost per posted bin. Each placement copy is posted as one
/// single-assignment HIT (the plan already encodes redundancy as explicit
/// copies).
Result<ExecutionReport> ExecutePlan(Platform& platform,
                                    const ColumnarPlan& plan,
                                    const BinProfile& profile,
                                    const std::vector<bool>& ground_truth);

}  // namespace slade

#endif  // SLADE_SIMULATOR_EXECUTOR_H_
