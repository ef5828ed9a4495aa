// Copyright (c) the SLADE reproduction authors.
// Decomposition plans (paper Definition 3), stored as arena-backed columns.
//
// A plan is the posted bins plus the task-to-bin mapping. It is kept as a
// structure of arrays (Arrow's columnar buffer + memory-pool design is the
// model) rather than one heap-allocated id vector per placement, so a
// million-placement merged plan is a handful of arena chunks instead of a
// million allocations, pointer chases and frees:
//
//   task_ids[]    -- every placement's member ids, back to back
//   ends[]        -- placement i's ids live in
//                    [ends[i-1], ends[i])  (ends[-1] == 0)
//   cardinality[] -- bin cardinality l per placement
//   copies[]      -- posted instances per placement
//
// All four columns live in one PlanArena: a chunked bump allocator that is
//   * reserve-friendly -- Combination::ExpandBlocksInto sizes a whole
//     assignment up front, so the steady state is one chunk and zero
//     per-placement allocations;
//   * reset-reusable -- Clear() rewinds the arena without freeing, so a
//     serving loop stamping plans round after round allocates only on the
//     first round;
//   * byte-charged -- an optional ResourceGovernor is charged per chunk,
//     making plan-materialization memory visible in the same ledger that
//     already bounds the OPQ cache and the admission queue.
//
// Every producer (the solvers, the engine, the CSV loader) stamps columns
// and every consumer (validation, cost accounting, splitting, merge,
// dispatch, execution) walks them with dense loops; see plan_validator.h,
// plan_splitter.h, decomposition_engine.h.

#ifndef SLADE_SOLVER_PLAN_ARENA_H_
#define SLADE_SOLVER_PLAN_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "binmodel/task.h"
#include "binmodel/task_bin.h"

namespace slade {

class ResourceGovernor;

/// \brief Chunked bump allocator backing ColumnarPlan columns.
///
/// Allocate() never frees; Reset() rewinds every chunk for reuse without
/// returning memory (or governor charges). Chunks grow geometrically from
/// `min_chunk_bytes` up to `max_chunk_bytes`, so allocation count is
/// O(log bytes) even without a Reserve. Not thread-safe: one arena belongs
/// to one plan (engine shards each stamp their own).
///
/// Chunks outlive any single arena: a dying arena returns its chunks to a
/// process-wide pool, and AddChunk satisfies new demand
/// from that pool before touching the system allocator. Large chunks are
/// the ones glibc serves by mmap, so without pooling every solve batch
/// would re-fault and re-zero its plan memory from the kernel -- with it,
/// a serving loop reaches a steady state where plan materialization does
/// no system allocation at all. The pool holds at most kMaxPooledBytes
/// (drop-on-overflow, LIFO reuse); PlanArenaPoolStats()/TrimPlanArenaPool()
/// expose it for tests and memory-pressure handling.
class PlanArena {
 public:
  static constexpr size_t kMinChunkBytes = 4096;
  static constexpr size_t kMaxChunkBytes = size_t{1} << 22;  // 4 MiB
  /// Cap on idle bytes retained by the process-wide chunk pool.
  static constexpr size_t kMaxPooledBytes = size_t{1} << 27;  // 128 MiB

  /// `governor` (may be null) is charged `capacity` bytes / 1 unit per
  /// chunk and released when the arena dies or the governor is detached.
  /// It must outlive the arena (or be detached first).
  explicit PlanArena(ResourceGovernor* governor = nullptr);
  ~PlanArena();

  PlanArena(const PlanArena&) = delete;
  PlanArena& operator=(const PlanArena&) = delete;

  /// Returns `bytes` of storage aligned to `alignment` (a power of two).
  /// Never fails short of std::bad_alloc.
  void* Allocate(size_t bytes, size_t alignment);

  /// Rewinds every chunk for reuse. Existing allocations become invalid;
  /// memory and governor charges are retained, so the next fill of the
  /// same shape allocates nothing.
  void Reset();

  /// Releases the governor charges and forgets the governor (used when an
  /// arena-backed plan escapes the governor's owner, e.g. a BatchReport
  /// returned to the caller). Peak counters on the governor retain the
  /// high-water mark.
  void DetachGovernor();

  size_t num_chunks() const { return chunks_.size(); }
  uint64_t reserved_bytes() const { return reserved_bytes_; }

 private:
  struct Chunk {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;
    size_t used = 0;
  };

  /// Makes chunks_[active_] (possibly a new chunk) able to hold `bytes`.
  void AddChunk(size_t min_bytes);

  /// Returns every chunk to the process-wide pool and releases the
  /// governor charges (the destructor's body).
  void ReleaseChunks();

  ResourceGovernor* governor_;
  std::vector<Chunk> chunks_;
  size_t active_ = 0;  ///< chunks_[active_] takes the next allocation
  uint64_t reserved_bytes_ = 0;
};

/// Observability for the process-wide chunk pool (see PlanArena).
struct PlanArenaPoolCounters {
  uint64_t pooled_bytes = 0;   ///< idle bytes currently held
  uint64_t pooled_chunks = 0;  ///< idle chunks currently held
  uint64_t reuse_hits = 0;     ///< AddChunk demands served from the pool
  uint64_t reuse_misses = 0;   ///< AddChunk demands that hit operator new
};
PlanArenaPoolCounters PlanArenaPoolStats();

/// Frees every idle pooled chunk (memory-pressure hook; counters for
/// lifetime hits/misses are retained).
void TrimPlanArenaPool();

/// \brief One growable typed column inside a PlanArena.
///
/// A grow moves the column to a fresh arena block (the old block is wasted
/// until Reset -- reservation makes growth rare); clear() keeps capacity.
template <typename T>
class ArenaColumn {
 public:
  const T* data() const { return data_; }
  T* data() { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return capacity_; }
  const T& operator[](size_t i) const { return data_[i]; }
  T& operator[](size_t i) { return data_[i]; }
  const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  /// Grows capacity to at least `n`. A relocation doubles the current
  /// capacity at minimum, so a caller that conservatively Reserves exact
  /// totals before every append (e.g. per ExpandBlocksInto call, or
  /// AppendColumns in a merge loop) still amortizes to O(1) copies per
  /// element instead of relocating the whole column each time.
  void Reserve(PlanArena& arena, size_t n) {
    if (n <= capacity_) return;
    const size_t target = n > capacity_ * 2 ? n : capacity_ * 2;
    T* grown =
        static_cast<T*>(arena.Allocate(target * sizeof(T), alignof(T)));
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = target;
  }

  /// Appends `n` default-stamped slots and returns the write pointer.
  T* AppendN(PlanArena& arena, size_t n) {
    if (size_ + n > capacity_) Grow(arena, size_ + n);
    T* out = data_ + size_;
    size_ += n;
    return out;
  }

  void PushBack(PlanArena& arena, T value) {
    if (size_ == capacity_) Grow(arena, size_ + 1);
    data_[size_++] = value;
  }

  /// Forgets the storage entirely (after the owning arena was Reset).
  void Detach() {
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
  }

 private:
  void Grow(PlanArena& arena, size_t needed) {
    size_t next = capacity_ == 0 ? size_t{64} : capacity_ * 2;
    if (next < needed) next = needed;
    Reserve(arena, next);
  }

  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// \brief A decomposition plan `DP_T` (see the file comment): which bins
/// are posted and which atomic tasks each contains.
///
/// The paper's plan notation {tau_i, b_i} only counts bins per
/// cardinality; the plan additionally records the task-to-bin mapping so
/// that it can be validated (plan_validator.h) and executed on the
/// platform simulator (simulator/executor.h).
///
/// A placement is `copies` instances of an l-cardinality bin, each holding
/// exactly the listed atomic tasks. It may list fewer than l tasks:
/// Definition 1 allows a bin to contain *at most* l distinct atomic tasks,
/// and the OPQ padding path (Algorithm 3 lines 8-10) posts partially
/// filled bins for leftover tasks. Producers are trusted; violations in
/// external input are caught by the validator, not here.
class ColumnarPlan {
 public:
  /// `governor` (may be null) is charged per arena chunk; it must outlive
  /// the plan unless DetachGovernor() is called first.
  explicit ColumnarPlan(ResourceGovernor* governor = nullptr)
      : arena_(std::make_unique<PlanArena>(governor)) {}

  // Deep copy (fresh arena, no governor). Hot paths move instead.
  ColumnarPlan(const ColumnarPlan& other);
  ColumnarPlan& operator=(const ColumnarPlan& other);
  ColumnarPlan(ColumnarPlan&&) noexcept = default;
  ColumnarPlan& operator=(ColumnarPlan&&) noexcept = default;

  /// \brief Zero-copy read view of one placement.
  struct PlacementView {
    uint32_t cardinality = 0;
    uint32_t copies = 0;
    const TaskId* tasks = nullptr;
    uint32_t num_tasks = 0;
  };

  size_t num_placements() const { return cardinality_.size(); }
  bool empty() const { return cardinality_.size() == 0; }
  size_t num_task_ids() const { return task_ids_.size(); }

  size_t placement_begin(size_t i) const { return i == 0 ? 0 : ends_[i - 1]; }
  size_t placement_end(size_t i) const { return ends_[i]; }

  PlacementView view(size_t i) const {
    const size_t begin = placement_begin(i);
    return PlacementView{cardinality_[i], copies_[i], task_ids_.data() + begin,
                         static_cast<uint32_t>(ends_[i] - begin)};
  }

  // Raw columns for flat passes (sizes: num_placements(), except task_ids
  // with num_task_ids()). ends()[i] is the exclusive task-id offset of
  // placement i; placement 0 begins at 0.
  const TaskId* task_ids() const { return task_ids_.data(); }
  const uint32_t* ends() const { return ends_.data(); }
  const uint32_t* cardinalities() const { return cardinality_.data(); }
  const uint32_t* copies() const { return copies_.data(); }

  /// Pre-sizes the columns; the workhorse of bulk stamping. Growth still
  /// works without it, at O(log) extra arena chunks.
  void Reserve(size_t placements, size_t ids);

  /// Appends one placement: `copies` instances of an l=`cardinality` bin
  /// holding the `n` ids at `ids`. No-op when copies == 0.
  void Add(uint32_t cardinality, uint32_t copies, const TaskId* ids,
           size_t n);
  void Add(uint32_t cardinality, uint32_t copies,
           const std::vector<TaskId>& ids) {
    Add(cardinality, copies, ids.data(), ids.size());
  }

  /// Column-concatenates `other` onto this plan (the shard merge): three
  /// memcpys plus an offset-rebase of the ends column, no per-placement
  /// work.
  void AppendColumns(const ColumnarPlan& other);

  /// Column-concatenates placements [first, first + count) of `other`,
  /// shifting every task id by `id_delta` (the splitter's contiguous-run
  /// fast path, and the global-id rebase of per-task plans).
  void AppendRange(const ColumnarPlan& other, size_t first, size_t count,
                   int64_t id_delta);

  /// Empties the plan and rewinds the arena; the next fill of similar
  /// shape allocates nothing.
  void Clear();

  /// See PlanArena::DetachGovernor.
  void DetachGovernor() { arena_->DetachGovernor(); }

  // --- flat accounting passes (single sweeps over the columns, bin
  // --- lookups through per-cardinality tables) ---

  /// Total incentive cost `sum tau_l * c_l` under `profile`.
  double TotalCost(const BinProfile& profile) const;

  /// Bin-usage counts tau_l indexed by cardinality (index 0 unused).
  std::vector<uint64_t> BinCounts(uint32_t max_cardinality) const;

  /// Total number of posted bin instances (sum of copies).
  uint64_t TotalBinInstances() const;

  /// Per-task achieved reliability (Equation 1) under `profile`; tasks
  /// never placed get 0.
  std::vector<double> PerTaskReliability(const BinProfile& profile,
                                         size_t n) const;

  /// Human-readable summary: bin counts and total cost.
  std::string Summary(const BinProfile& profile) const;

  const PlanArena& arena() const { return *arena_; }

 private:
  std::unique_ptr<PlanArena> arena_;
  ArenaColumn<TaskId> task_ids_;
  ArenaColumn<uint32_t> ends_;
  ArenaColumn<uint32_t> cardinality_;
  ArenaColumn<uint32_t> copies_;
};

}  // namespace slade

#endif  // SLADE_SOLVER_PLAN_ARENA_H_
