#include "solver/exact_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>

#include "common/math_util.h"

namespace slade {

namespace {

// Branch-and-bound state for the single-task optimum.
struct BnB {
  const BinProfile& profile;
  uint64_t budget;
  uint64_t nodes = 0;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<uint32_t> best_counts;
  std::vector<uint32_t> counts;
  double min_cost_per_weight = 0.0;

  explicit BnB(const BinProfile& p, uint64_t node_budget)
      : profile(p), budget(node_budget) {
    counts.assign(p.max_cardinality(), 0);
    min_cost_per_weight = std::numeric_limits<double>::infinity();
    for (uint32_t l = 1; l <= p.max_cardinality(); ++l) {
      const TaskBin& b = p.bin(l);
      min_cost_per_weight = std::min(
          min_cost_per_weight, b.cost_per_task() / b.log_weight());
    }
  }

  Status Search(uint32_t start, double remaining, double cost) {
    for (uint32_t l = start; l <= profile.max_cardinality(); ++l) {
      if (++nodes > budget) {
        return Status::ResourceExhausted(
            "single-task branch-and-bound exceeded node budget");
      }
      const TaskBin& b = profile.bin(l);
      const double new_cost = cost + b.cost_per_task();
      if (new_cost >= best_cost) continue;
      const double new_remaining = remaining - b.log_weight();
      counts[l - 1] += 1;
      if (new_remaining <= kRelEps) {
        best_cost = new_cost;
        best_counts = counts;
      } else if (new_cost + new_remaining * min_cost_per_weight <
                 best_cost) {
        SLADE_RETURN_NOT_OK(Search(l, new_remaining, new_cost));
      }
      counts[l - 1] -= 1;
    }
    return Status::OK();
  }
};

}  // namespace

Result<SingleTaskOptimum> OptimalSingleTaskCombination(
    const BinProfile& profile, double theta, uint64_t node_budget) {
  if (!(theta > 0.0)) {
    return Status::InvalidArgument("theta must be positive");
  }
  BnB bnb(profile, node_budget);
  SLADE_RETURN_NOT_OK(bnb.Search(1, theta, 0.0));
  SingleTaskOptimum opt;
  opt.unit_cost = bnb.best_cost;
  for (uint32_t l = 1; l <= profile.max_cardinality(); ++l) {
    if (bnb.best_counts.size() >= l && bnb.best_counts[l - 1] > 0) {
      opt.parts.emplace_back(l, bnb.best_counts[l - 1]);
    }
  }
  return opt;
}

namespace {

using StateKey = std::vector<int64_t>;

StateKey MakeKey(const std::vector<double>& residuals) {
  StateKey key(residuals.size());
  for (size_t i = 0; i < residuals.size(); ++i) {
    const double clamped = std::max(residuals[i], 0.0);
    key[i] = static_cast<int64_t>(std::llround(clamped * 1e7));
  }
  return key;
}

struct SearchAction {
  uint32_t cardinality = 0;
  std::vector<TaskId> tasks;
};

struct NodeInfo {
  double cost = std::numeric_limits<double>::infinity();
  StateKey parent;
  SearchAction action;
};

// Enumerates all size-`s` subsets of `active` via index combinations,
// invoking `fn` with each subset.
template <typename Fn>
void ForEachSubset(const std::vector<TaskId>& active, size_t s, Fn&& fn) {
  std::vector<size_t> idx(s);
  for (size_t i = 0; i < s; ++i) idx[i] = i;
  while (true) {
    std::vector<TaskId> subset(s);
    for (size_t i = 0; i < s; ++i) subset[i] = active[idx[i]];
    fn(subset);
    // Next combination.
    size_t i = s;
    while (i > 0) {
      --i;
      if (idx[i] != i + active.size() - s) {
        ++idx[i];
        for (size_t j = i + 1; j < s; ++j) idx[j] = idx[j - 1] + 1;
        break;
      }
      if (i == 0) return;
    }
    if (s == 0) return;
  }
}

}  // namespace

Result<ColumnarPlan> ExactSmallSolver::Solve(
    const CrowdsourcingTask& task, const BinProfile& profile) {
  const size_t n = task.size();
  if (n > 10) {
    return Status::InvalidArgument(
        "ExactSmallSolver is exponential; refusing n > 10 (got " +
        std::to_string(n) + ")");
  }
  const uint32_t m = profile.max_cardinality();

  // Uniform-cost search over residual vectors.
  std::map<StateKey, NodeInfo> nodes;
  using QueueEntry = std::pair<double, StateKey>;
  std::priority_queue<QueueEntry, std::vector<QueueEntry>, std::greater<>>
      frontier;

  std::vector<double> start_res(task.thetas());
  const StateKey start = MakeKey(start_res);
  nodes[start] = NodeInfo{0.0, {}, {}};
  frontier.emplace(0.0, start);

  uint64_t expanded = 0;
  StateKey goal;
  bool found = false;

  while (!frontier.empty()) {
    auto [cost, key] = frontier.top();
    frontier.pop();
    auto it = nodes.find(key);
    if (it == nodes.end() || cost > it->second.cost + 1e-12) continue;

    // Goal test: all residuals zero.
    bool done = true;
    std::vector<TaskId> active;
    for (size_t i = 0; i < n; ++i) {
      if (key[i] > 0) {
        done = false;
        active.push_back(static_cast<TaskId>(i));
      }
    }
    if (done) {
      goal = key;
      found = true;
      break;
    }
    if (++expanded > state_budget_) {
      return Status::ResourceExhausted(
          "exact search exceeded its state budget");
    }

    for (uint32_t l = 1; l <= m; ++l) {
      const TaskBin& bin = profile.bin(l);
      const size_t s = std::min<size_t>(l, active.size());
      const int64_t w_fixed =
          static_cast<int64_t>(std::llround(bin.log_weight() * 1e7));
      ForEachSubset(active, s, [&](const std::vector<TaskId>& subset) {
        StateKey next = key;
        for (TaskId id : subset) {
          next[id] = std::max<int64_t>(0, next[id] - w_fixed);
        }
        const double next_cost = cost + bin.cost;
        auto [slot, inserted] =
            nodes.try_emplace(next, NodeInfo{});
        if (inserted || next_cost < slot->second.cost - 1e-12) {
          slot->second.cost = next_cost;
          slot->second.parent = key;
          slot->second.action = SearchAction{l, subset};
          frontier.emplace(next_cost, next);
        }
      });
    }
  }

  if (!found) {
    return Status::Internal("exact search exhausted frontier without goal");
  }

  // Reconstruct the plan by walking parents back to the start state.
  ColumnarPlan plan;
  std::vector<SearchAction> actions;
  StateKey cur = goal;
  while (cur != start) {
    const NodeInfo& info = nodes.at(cur);
    actions.push_back(info.action);
    cur = info.parent;
  }
  for (auto it2 = actions.rbegin(); it2 != actions.rend(); ++it2) {
    plan.Add(it2->cardinality, 1, it2->tasks);
  }
  return plan;
}

}  // namespace slade
