// Copyright (c) the SLADE reproduction authors.
// The durability seam between the streaming engine and the write-ahead
// log (durability/journal.h implements it; durability/wal.h stores it).
//
// StreamingEngine stays ignorant of WAL formats and fsync policy: when
// StreamingOptions::durability is set it calls these hooks at the three
// lifecycle points of a submission — admitted (durable before the future
// is handed out), completed or rejected (buffered, made durable by one
// SyncOutcomes barrier per micro-batch, *before* any future resolves) —
// and consults LookupCompleted to answer a duplicate submission id with
// the original outcome instead of re-solving and re-billing it.
//
// The hooks object must outlive every engine wired to it.

#ifndef SLADE_DURABILITY_HOOKS_H_
#define SLADE_DURABILITY_HOOKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "binmodel/task.h"
#include "common/status.h"

namespace slade {

/// \brief The billable summary of a delivered submission: everything a
/// duplicate-id response reports without re-solving. The plan bytes
/// themselves are deliberately not retained — a duplicate gets the
/// original metadata (cost, bins, flush) plus `duplicate = true`, and
/// re-fetching placements requires a fresh (new-id) submission.
struct SubmissionOutcome {
  double cost = 0.0;
  uint64_t bins_posted = 0;
  uint64_t flush_id = 0;
  uint64_t num_tasks = 0;
  uint64_t num_atomic_tasks = 0;
  double latency_seconds = 0.0;
};

/// \brief A submission reconstructed from the log on startup: admitted
/// (its admit record was durable) but neither completed nor rejected
/// before the crash. Re-admit through StreamingEngine::ReplayRecovered.
struct RecoveredSubmission {
  std::string submission_id;
  std::string requester;
  std::vector<CrowdsourcingTask> tasks;
};

/// \brief Journal callbacks the streaming engine drives. All methods are
/// thread-safe. Record* calls may fail with IOError once the underlying
/// log is dead. The engine surfaces admit failures to the submitter; for
/// outcome, reject and sync failures delivery still proceeds (losing the
/// log degrades durability, not availability of already-solved plans),
/// so the implementation must count them itself — SubmissionJournal
/// reports them as JournalStats::append_errors.
class DurabilityHooks {
 public:
  virtual ~DurabilityHooks() = default;

  /// A process-unique submission id for clients that did not supply one.
  /// Ids must stay unique across restarts on the same log.
  virtual std::string GenerateSubmissionId() = 0;

  /// Journals an admission; durable when it returns (group commit — see
  /// durability/wal.h — amortizes the fsync across concurrent callers).
  virtual Status RecordAdmit(const std::string& submission_id,
                             const std::string& requester,
                             const std::vector<CrowdsourcingTask>& tasks) = 0;

  /// Buffers a completion record and stages `outcome` for the duplicate-id
  /// map. Neither is visible to LookupCompleted (nor durable) until
  /// SyncOutcomes: a duplicate must never be answered from an outcome a
  /// crash could still lose.
  virtual Status RecordComplete(const std::string& submission_id,
                                const SubmissionOutcome& outcome) = 0;

  /// Buffers a close-without-outcome record: the id's admit must not be
  /// replayed, but the id is NOT dedupable — a client retrying a rejected
  /// submission with the same id gets a real solve, which is correct.
  virtual Status RecordReject(const std::string& submission_id) = 0;

  /// Durability barrier: every buffered record is durable when this
  /// returns, and every outcome staged by RecordComplete becomes visible
  /// to LookupCompleted.
  virtual Status SyncOutcomes() = 0;

  /// Returns true and fills `*outcome` when `submission_id` completed
  /// previously (within the retained-outcome window).
  virtual bool LookupCompleted(const std::string& submission_id,
                               SubmissionOutcome* outcome) const = 0;

  /// Optional retention pass: reclaim log space that holds only closed
  /// submissions. The engine calls it after each SyncOutcomes.
  virtual Status Compact() { return Status::OK(); }
};

}  // namespace slade

#endif  // SLADE_DURABILITY_HOOKS_H_
