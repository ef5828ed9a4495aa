// Plan-equality helpers shared by the test suites: a plan's placements
// rendered as one comparable string, read through ColumnarPlan::view().

#ifndef SLADE_TESTS_PLAN_SIGNATURE_H_
#define SLADE_TESTS_PLAN_SIGNATURE_H_

#include <algorithm>
#include <string>
#include <vector>

#include "solver/plan_arena.h"

namespace slade {

/// Placement `i` as "<cardinality>x<copies>:<id>;<id>;...;", ids in plan
/// order unless `sorted`.
inline std::string PlacementSignature(const ColumnarPlan& plan, size_t i,
                                      bool sorted = false) {
  const ColumnarPlan::PlacementView p = plan.view(i);
  std::vector<TaskId> ids(p.tasks, p.tasks + p.num_tasks);
  if (sorted) std::sort(ids.begin(), ids.end());
  std::string sig =
      std::to_string(p.cardinality) + "x" + std::to_string(p.copies) + ":";
  for (TaskId id : ids) sig += std::to_string(id) + ";";
  return sig;
}

/// The whole plan, placement by placement in plan order: two plans have
/// equal signatures iff they are placement-identical.
inline std::string PlanSignature(const ColumnarPlan& plan) {
  std::string sig;
  for (size_t i = 0; i < plan.num_placements(); ++i) {
    sig += PlacementSignature(plan, i) + "|";
  }
  return sig;
}

/// Order-insensitive variant: ids sorted within each placement and
/// placements sorted, so plans that post the same multiset of bins match.
inline std::string UnorderedPlanSignature(const ColumnarPlan& plan) {
  std::vector<std::string> parts;
  parts.reserve(plan.num_placements());
  for (size_t i = 0; i < plan.num_placements(); ++i) {
    parts.push_back(PlacementSignature(plan, i, /*sorted=*/true));
  }
  std::sort(parts.begin(), parts.end());
  std::string sig;
  for (const std::string& part : parts) sig += part + "|";
  return sig;
}

}  // namespace slade

#endif  // SLADE_TESTS_PLAN_SIGNATURE_H_
