// Copyright (c) the SLADE reproduction authors.
// File formats for bin profiles, threshold vectors and decomposition plans,
// shared by the CLI tool and downstream pipelines.

#ifndef SLADE_IO_MODEL_IO_H_
#define SLADE_IO_MODEL_IO_H_

#include <string>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"
#include "common/result.h"
#include "solver/plan_arena.h"

namespace slade {

/// \brief Loads a bin profile from CSV with header
/// `cardinality,confidence,cost` (rows in any order, cardinalities must
/// form 1..m).
Result<BinProfile> LoadBinProfileCsv(const std::string& path);

/// \brief Writes a bin profile in the same format.
Status SaveBinProfileCsv(const BinProfile& profile, const std::string& path);

/// \brief Loads reliability thresholds from CSV: header `threshold`, one
/// value per row (task ids are the row order).
Result<CrowdsourcingTask> LoadThresholdsCsv(const std::string& path);

/// \brief Writes thresholds in the same format.
Status SaveThresholdsCsv(const CrowdsourcingTask& task,
                         const std::string& path);

/// \brief Loads a batch workload from CSV with header `task,threshold`:
/// one row per atomic task, `task` a 0-based crowdsourcing-task index.
/// Rows for the same task must be consecutive and indices must start at 0
/// and increase by at most 1 (so the file is unambiguous and the batch
/// order is the file order).
Result<std::vector<CrowdsourcingTask>> LoadBatchWorkloadCsv(
    const std::string& path);

/// \brief Writes a batch workload in the same format.
Status SaveBatchWorkloadCsv(const std::vector<CrowdsourcingTask>& tasks,
                            const std::string& path);

/// \brief One arrival in a timed (streaming) workload: a requester submits
/// one or more crowdsourcing tasks at `arrival_ms` (milliseconds from the
/// start of the replay).
struct TimedSubmission {
  double arrival_ms = 0.0;
  std::string requester;
  /// Idempotency id (see durability/hooks.h). Not part of the CSV format:
  /// ingestion sources stamp it deterministically at replay time, so the
  /// same tape replays with the same ids (empty = anonymous).
  std::string submission_id;
  std::vector<CrowdsourcingTask> tasks;

  size_t num_atomic_tasks() const {
    size_t n = 0;
    for (const CrowdsourcingTask& t : tasks) n += t.size();
    return n;
  }
};

/// \brief Loads a timed workload from CSV with header
/// `arrival_ms,requester,task,threshold`: one row per atomic task.
/// Consecutive rows with the same (arrival_ms, requester) form one
/// submission; within a submission, `task` is a 0-based crowdsourcing-task
/// index that starts at 0 and increases by at most 1 (the batch-workload
/// rule). Arrival times must be non-decreasing.
Result<std::vector<TimedSubmission>> LoadTimedWorkloadCsv(
    const std::string& path);

/// \brief Writes a timed workload in the same format. Fails if two
/// consecutive submissions share both arrival_ms and requester: the format
/// keys submission boundaries on that pair changing, so such neighbours
/// would merge on reload.
Status SaveTimedWorkloadCsv(const std::vector<TimedSubmission>& submissions,
                            const std::string& path);

/// \brief Writes a plan as CSV with header `cardinality,copies,tasks`
/// where `tasks` is a semicolon-joined id list.
Status SavePlanCsv(const ColumnarPlan& plan, const std::string& path);

/// \brief Reads a plan written by SavePlanCsv. Values that do not fit the
/// plan's 32-bit columns are rejected, not truncated.
Result<ColumnarPlan> LoadPlanCsv(const std::string& path);

}  // namespace slade

#endif  // SLADE_IO_MODEL_IO_H_
