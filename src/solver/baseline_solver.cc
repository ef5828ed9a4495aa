#include "solver/baseline_solver.h"

#include <algorithm>
#include <numeric>

#include "common/random.h"
#include "common/thread_pool.h"
#include "solver/cip.h"

namespace slade {

namespace {

// Generates the sampled combination-instance columns for one chunk of
// `chunk` tasks with demands `thetas` (chunk-local indexing).
std::vector<CipColumn> GenerateColumns(const BinProfile& profile,
                                       size_t chunk,
                                       uint32_t columns_per_cardinality,
                                       Xoshiro256& rng) {
  std::vector<CipColumn> columns;
  const uint32_t m = profile.max_cardinality();

  // All singletons: guarantees every row is coverable.
  for (uint32_t i = 0; i < chunk; ++i) {
    CipColumn col;
    col.cardinality = 1;
    col.rows = {i};
    col.cost = profile.bin(1).cost;
    col.weight = profile.bin(1).log_weight();
    columns.push_back(std::move(col));
  }

  std::vector<uint32_t> perm(chunk);
  std::iota(perm.begin(), perm.end(), 0);

  for (uint32_t l = 2; l <= m; ++l) {
    const TaskBin& bin = profile.bin(l);
    const size_t take = std::min<size_t>(l, chunk);

    // Consecutive tiling: offsets 0, l, 2l, ...
    for (size_t start = 0; start < chunk; start += take) {
      CipColumn col;
      col.cardinality = l;
      const size_t end = std::min(start + take, chunk);
      for (size_t i = start; i < end; ++i) {
        col.rows.push_back(static_cast<uint32_t>(i));
      }
      col.cost = bin.cost;
      col.weight = bin.log_weight();
      columns.push_back(std::move(col));
    }

    // Random subsets (partial Fisher-Yates per column).
    for (uint32_t s = 0; s < columns_per_cardinality; ++s) {
      for (size_t i = 0; i < take; ++i) {
        const size_t j =
            i + static_cast<size_t>(rng.NextBounded(chunk - i));
        std::swap(perm[i], perm[j]);
      }
      CipColumn col;
      col.cardinality = l;
      col.rows.assign(perm.begin(), perm.begin() + take);
      std::sort(col.rows.begin(), col.rows.end());
      col.cost = bin.cost;
      col.weight = bin.log_weight();
      columns.push_back(std::move(col));
    }
  }
  return columns;
}

// Emits the integer CIP solution of one chunk into the plan, mapping
// chunk-local row r to task id `id_base + r`.
void EmitChunkPlan(const CipInstance& inst, const std::vector<uint64_t>& y,
                   size_t id_base, ColumnarPlan* plan) {
  std::vector<TaskId> tasks;  // scratch: one column's members
  for (size_t j = 0; j < inst.columns.size(); ++j) {
    if (y[j] == 0) continue;
    const CipColumn& col = inst.columns[j];
    tasks.clear();
    for (uint32_t row : col.rows) {
      tasks.push_back(static_cast<TaskId>(id_base + row));
    }
    plan->Add(col.cardinality, static_cast<uint32_t>(y[j]), tasks);
  }
}

}  // namespace

Result<ColumnarPlan> BaselineSolver::Solve(const CrowdsourcingTask& task,
                                           const BinProfile& profile) {
  const size_t n = task.size();
  const size_t chunk_size = std::max<size_t>(
      std::min<size_t>(options_.baseline_chunk_size, n), 1);

  // For homogeneous thresholds every full chunk's CIP is identical up to
  // task relabeling (modulo column sampling), so the caller may opt into
  // solving once and replicating.
  const bool replicate =
      options_.baseline_reuse_homogeneous_chunks && task.is_homogeneous();

  struct ChunkSpec {
    size_t offset = 0;
    size_t size = 0;
  };
  std::vector<ChunkSpec> chunks;
  for (size_t offset = 0; offset < n; offset += chunk_size) {
    chunks.push_back({offset, std::min(chunk_size, n - offset)});
  }

  // Solves chunk `c` into `out` with its rows mapped to ids starting at
  // `id_base`. Chunk seeds depend only on the chunk index, so the outcome
  // is schedule-independent.
  auto solve_chunk = [&](size_t c, size_t id_base,
                         ColumnarPlan* out) -> Status {
    const auto [offset, chunk] = chunks[c];
    Xoshiro256 rng(options_.seed ^ (0x9E3779B97F4A7C15ULL * (c + 1)));
    CipInstance inst;
    inst.demand.reserve(chunk);
    for (size_t i = 0; i < chunk; ++i) {
      inst.demand.push_back(task.theta(static_cast<TaskId>(offset + i)));
    }
    inst.columns = GenerateColumns(
        profile, chunk, options_.baseline_columns_per_cardinality, rng);

    CipSolveOptions cip_options;
    cip_options.seed = options_.seed + c;
    cip_options.rounding_rounds = options_.baseline_rounding_rounds;
    SLADE_ASSIGN_OR_RETURN(CipSolution solution, SolveCip(inst, cip_options));
    EmitChunkPlan(inst, solution.y, id_base, out);
    return Status::OK();
  };

  ColumnarPlan plan;
  if (replicate) {
    // Serial path: solve the first chunk of each distinct size with
    // chunk-local ids, then stamp it at every equally-sized chunk's
    // offset (relabeling a chunk is a constant id shift).
    ColumnarPlan cached;
    size_t cached_size = 0;
    for (size_t c = 0; c < chunks.size(); ++c) {
      const auto [offset, chunk] = chunks[c];
      if (c == 0 || chunk != cached_size) {
        cached.Clear();
        SLADE_RETURN_NOT_OK(solve_chunk(c, 0, &cached));
        cached_size = chunk;
      }
      plan.AppendRange(cached, 0, cached.num_placements(),
                       static_cast<int64_t>(offset));
    }
    return plan;
  }

  // Each chunk solves into its own plan slot; slots merge in chunk order.
  std::vector<ColumnarPlan> chunk_plans(chunks.size());
  std::vector<Status> chunk_status(chunks.size());
  auto solve_slot = [&](size_t c) {
    chunk_status[c] = solve_chunk(c, chunks[c].offset, &chunk_plans[c]);
  };
  if (options_.baseline_threads > 1 && chunks.size() > 1) {
    ThreadPool pool(options_.baseline_threads);
    ParallelFor(&pool, chunks.size(), solve_slot);
  } else {
    for (size_t c = 0; c < chunks.size(); ++c) solve_slot(c);
  }
  size_t total_placements = 0;
  size_t total_ids = 0;
  for (const ColumnarPlan& chunk_plan : chunk_plans) {
    total_placements += chunk_plan.num_placements();
    total_ids += chunk_plan.num_task_ids();
  }
  plan.Reserve(total_placements, total_ids);
  for (size_t c = 0; c < chunks.size(); ++c) {
    SLADE_RETURN_NOT_OK(chunk_status[c]);
    plan.AppendColumns(chunk_plans[c]);
  }
  return plan;
}

}  // namespace slade
