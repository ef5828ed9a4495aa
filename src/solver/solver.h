// Copyright (c) the SLADE reproduction authors.
// Common interface for all SLADE solvers + factory.

#ifndef SLADE_SOLVER_SOLVER_H_
#define SLADE_SOLVER_SOLVER_H_

#include <memory>
#include <string>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"
#include "solver/plan_arena.h"

namespace slade {

/// \brief Tuning knobs shared across solvers.
struct SolverOptions {
  /// Seed for randomized components (the baseline's randomized rounding).
  uint64_t seed = 0x51adeULL;
  /// Baseline: tasks per CIP chunk (the paper's "we only generate part of
  /// the combination instances" sampling; see baseline_solver.h).
  uint32_t baseline_chunk_size = 48;
  /// Baseline: sampled combination instances per cardinality per chunk.
  uint32_t baseline_columns_per_cardinality = 8;
  /// Baseline: randomized-rounding repetitions (cheapest kept).
  uint32_t baseline_rounding_rounds = 5;
  /// Baseline: on homogeneous input, solve one chunk CIP and replicate the
  /// integer solution across chunks instead of re-solving each chunk.
  /// Off by default: re-solving keeps the per-chunk column sampling
  /// independent, which is what the paper's randomized baseline does.
  bool baseline_reuse_homogeneous_chunks = false;
  /// Baseline: worker threads for solving chunk CIPs in parallel
  /// (chunks are independent sub-problems). 0 or 1 = serial. The result
  /// is identical regardless of thread count: chunk seeds are fixed and
  /// plans are merged in chunk order.
  uint32_t baseline_threads = 0;
  /// OPQ builder: abort enumeration beyond this many DFS nodes.
  uint64_t opq_node_budget = 50'000'000;
};

/// \brief A SLADE solver: turns (task, bin profile) into a decomposition
/// plan whose per-task reliability meets every threshold.
///
/// The SLADE problem is always feasible (bins can be repeated without
/// bound and every confidence is positive), so errors signal invalid input
/// or exhausted internal budgets, never true infeasibility.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Solver name as used in the paper's figures ("Greedy", "OPQ-Based",
  /// "OPQ-Extended", "Baseline").
  virtual std::string name() const = 0;

  /// Computes a feasible decomposition plan.
  virtual Result<ColumnarPlan> Solve(const CrowdsourcingTask& task,
                                     const BinProfile& profile) = 0;
};

/// \brief Known solver implementations.
enum class SolverKind {
  kGreedy,       ///< Algorithm 1
  kOpq,          ///< Algorithm 3 (homogeneous; rejects heterogeneous input)
  kOpqExtended,  ///< Algorithm 5 (handles both)
  kBaseline,     ///< Section 4.3 CIP reduction + LP rounding
  kRelaxedDp,    ///< Section 4.2 rod-cutting DP (requires r_l >= t_max)
};

const char* SolverKindName(SolverKind kind);

/// \brief Creates a solver instance.
std::unique_ptr<Solver> MakeSolver(SolverKind kind,
                                   const SolverOptions& options = {});

}  // namespace slade

#endif  // SLADE_SOLVER_SOLVER_H_
