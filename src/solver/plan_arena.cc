#include "solver/plan_arena.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

#include "common/math_util.h"
#include "engine/resource_governor.h"

namespace slade {

namespace {

/// Process-wide recycler for retired arena chunks. Large chunks are the
/// ones glibc serves straight from mmap, so without recycling every batch
/// solve re-faults and re-zeroes its plan memory from the kernel; the pool
/// keeps those pages warm across arena lifetimes.
///
/// Idle chunks sit in power-of-two size-class free lists (bucket b holds
/// capacities in [2^b, 2^(b+1))); Acquire pops LIFO from the smallest
/// class that guarantees the demand, so a split pass retiring tens of
/// thousands of 4 KiB slice chunks never degrades acquire beyond the
/// O(log) bucket scan. LIFO reuse favors the most recently touched
/// (cache- and TLB-warm) chunks; Recycle drops chunks on the floor once
/// kMaxPooledBytes of idle memory is held.
class ChunkPool {
 public:
  static ChunkPool& Instance() {
    static ChunkPool* pool = new ChunkPool();  // never destroyed: arenas
    return *pool;  // in static objects may recycle after exit begins
  }

  /// Pops an idle chunk holding >= `min_bytes` from the smallest
  /// sufficient size class. Returns null (and counts a miss) when every
  /// such class is empty.
  std::unique_ptr<unsigned char[]> Acquire(size_t min_bytes,
                                           size_t* capacity) {
    std::lock_guard<std::mutex> lock(mu_);
    // Every chunk in bucket >= ceil(log2(min_bytes)) has capacity >=
    // min_bytes. (A bucket-floor chunk with capacity in
    // [min_bytes, 2^ceil) is skipped -- arena capacities are almost
    // always exact powers of two, so the loss is negligible.)
    for (size_t b = CeilLog2(min_bytes); b < kNumBuckets; ++b) {
      std::vector<Idle>& bucket = buckets_[b];
      if (bucket.empty()) continue;
      ++hits_;
      Idle idle = std::move(bucket.back());
      bucket.pop_back();
      pooled_bytes_ -= idle.capacity;
      --pooled_chunks_;
      *capacity = idle.capacity;
      return std::move(idle.data);
    }
    ++misses_;
    return nullptr;
  }

  void Recycle(std::unique_ptr<unsigned char[]> data, size_t capacity) {
    if (data == nullptr || capacity == 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    if (pooled_bytes_ + capacity > PlanArena::kMaxPooledBytes) return;
    pooled_bytes_ += capacity;
    ++pooled_chunks_;
    buckets_[FloorLog2(capacity)].push_back(Idle{std::move(data), capacity});
  }

  PlanArenaPoolCounters Stats() {
    std::lock_guard<std::mutex> lock(mu_);
    PlanArenaPoolCounters out;
    out.pooled_bytes = pooled_bytes_;
    out.pooled_chunks = pooled_chunks_;
    out.reuse_hits = hits_;
    out.reuse_misses = misses_;
    return out;
  }

  void Trim() {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::vector<Idle>& bucket : buckets_) bucket.clear();
    pooled_bytes_ = 0;
    pooled_chunks_ = 0;
  }

 private:
  static constexpr size_t kNumBuckets = 64;

  struct Idle {
    std::unique_ptr<unsigned char[]> data;
    size_t capacity = 0;
  };

  static size_t FloorLog2(size_t v) {
    size_t b = 0;
    while (v >>= 1) ++b;
    return b;
  }

  static size_t CeilLog2(size_t v) {
    const size_t floor = FloorLog2(v);
    return (size_t{1} << floor) == v ? floor : floor + 1;
  }

  std::mutex mu_;
  std::vector<Idle> buckets_[kNumBuckets];
  uint64_t pooled_bytes_ = 0;
  uint64_t pooled_chunks_ = 0;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace

PlanArenaPoolCounters PlanArenaPoolStats() {
  return ChunkPool::Instance().Stats();
}

void TrimPlanArenaPool() { ChunkPool::Instance().Trim(); }

PlanArena::PlanArena(ResourceGovernor* governor) : governor_(governor) {}

PlanArena::~PlanArena() { ReleaseChunks(); }

void PlanArena::ReleaseChunks() {
  DetachGovernor();
  for (Chunk& chunk : chunks_) {
    ChunkPool::Instance().Recycle(std::move(chunk.data), chunk.capacity);
  }
  chunks_.clear();
  active_ = 0;
  reserved_bytes_ = 0;
}

void PlanArena::DetachGovernor() {
  if (governor_ == nullptr) return;
  governor_->Release(reserved_bytes_, chunks_.size());
  governor_ = nullptr;
}

void* PlanArena::Allocate(size_t bytes, size_t alignment) {
  if (bytes == 0) bytes = 1;
  for (;;) {
    if (active_ < chunks_.size()) {
      Chunk& chunk = chunks_[active_];
      const size_t aligned =
          (chunk.used + alignment - 1) & ~(alignment - 1);
      if (aligned + bytes <= chunk.capacity) {
        chunk.used = aligned + bytes;
        return chunk.data.get() + aligned;
      }
      // The active chunk is full; after a Reset() the next retained chunk
      // may still have room, otherwise a new one is grown below.
      ++active_;
      continue;
    }
    AddChunk(bytes + alignment);
  }
}

void PlanArena::AddChunk(size_t min_bytes) {
  size_t capacity = kMinChunkBytes;
  if (!chunks_.empty()) {
    capacity = std::min(chunks_.back().capacity * 2, kMaxChunkBytes);
  }
  capacity = std::max(capacity, min_bytes);
  Chunk chunk;
  // A recycled chunk keeps its (possibly larger) capacity; the governor is
  // charged for what the arena actually holds either way.
  chunk.data = ChunkPool::Instance().Acquire(capacity, &capacity);
  if (chunk.data == nullptr) {
    // Default-initialized (not value-initialized): columns stamp every
    // byte they expose, so zeroing fresh chunks would be pure waste.
    chunk.data.reset(new unsigned char[capacity]);
  }
  chunk.capacity = capacity;
  chunks_.push_back(std::move(chunk));
  active_ = chunks_.size() - 1;
  reserved_bytes_ += capacity;
  if (governor_ != nullptr) governor_->Charge(capacity, 1);
}

void PlanArena::Reset() {
  for (Chunk& chunk : chunks_) chunk.used = 0;
  active_ = 0;
}

ColumnarPlan::ColumnarPlan(const ColumnarPlan& other)
    : arena_(std::make_unique<PlanArena>()) {
  AppendColumns(other);
}

ColumnarPlan& ColumnarPlan::operator=(const ColumnarPlan& other) {
  if (this == &other) return *this;
  Clear();
  // Clear() rewound the arena; the columns must not reuse their stale
  // pointers into it.
  task_ids_.Detach();
  ends_.Detach();
  cardinality_.Detach();
  copies_.Detach();
  AppendColumns(other);
  return *this;
}

void ColumnarPlan::Reserve(size_t placements, size_t ids) {
  task_ids_.Reserve(*arena_, ids);
  ends_.Reserve(*arena_, placements);
  cardinality_.Reserve(*arena_, placements);
  copies_.Reserve(*arena_, placements);
}

void ColumnarPlan::Add(uint32_t cardinality, uint32_t copies,
                       const TaskId* ids, size_t n) {
  if (copies == 0) return;
  TaskId* out = task_ids_.AppendN(*arena_, n);
  if (n != 0) std::memcpy(out, ids, n * sizeof(TaskId));
  ends_.PushBack(*arena_, static_cast<uint32_t>(task_ids_.size()));
  cardinality_.PushBack(*arena_, cardinality);
  copies_.PushBack(*arena_, copies);
}

void ColumnarPlan::AppendColumns(const ColumnarPlan& other) {
  AppendRange(other, 0, other.num_placements(), 0);
}

void ColumnarPlan::AppendRange(const ColumnarPlan& other, size_t first,
                               size_t count, int64_t id_delta) {
  if (count == 0) return;
  const size_t id_begin = other.placement_begin(first);
  const size_t id_end = other.placement_end(first + count - 1);
  const size_t ids = id_end - id_begin;

  TaskId* id_out = task_ids_.AppendN(*arena_, ids);
  if (id_delta == 0) {
    std::memcpy(id_out, other.task_ids() + id_begin, ids * sizeof(TaskId));
  } else {
    const TaskId* src = other.task_ids() + id_begin;
    for (size_t k = 0; k < ids; ++k) {
      id_out[k] = static_cast<TaskId>(static_cast<int64_t>(src[k]) +
                                      id_delta);
    }
  }

  uint32_t* cards = cardinality_.AppendN(*arena_, count);
  std::memcpy(cards, other.cardinalities() + first, count * sizeof(uint32_t));
  uint32_t* copies = copies_.AppendN(*arena_, count);
  std::memcpy(copies, other.copies() + first, count * sizeof(uint32_t));

  // The ends column needs a rebase: subtract the range's base offset in
  // `other`, add the id count already present here.
  const int64_t rebase = static_cast<int64_t>(task_ids_.size()) -
                         static_cast<int64_t>(id_end);
  uint32_t* ends = ends_.AppendN(*arena_, count);
  const uint32_t* src_ends = other.ends() + first;
  for (size_t k = 0; k < count; ++k) {
    ends[k] =
        static_cast<uint32_t>(static_cast<int64_t>(src_ends[k]) + rebase);
  }
}

void ColumnarPlan::Clear() {
  task_ids_.Detach();
  ends_.Detach();
  cardinality_.Detach();
  copies_.Detach();
  arena_->Reset();
}

double ColumnarPlan::TotalCost(const BinProfile& profile) const {
  // Per-cardinality cost table: the sweep reads two dense u32 columns and
  // one small table instead of chasing per-placement bin structs.
  const std::vector<TaskBin>& bins = profile.bins();
  std::vector<double> cost_of(bins.size() + 1, 0.0);
  for (const TaskBin& bin : bins) cost_of[bin.cardinality] = bin.cost;
  double cost = 0.0;
  const size_t n = num_placements();
  for (size_t i = 0; i < n; ++i) {
    if (cardinality_[i] < cost_of.size()) {
      cost += static_cast<double>(copies_[i]) * cost_of[cardinality_[i]];
    }
  }
  return cost;
}

std::vector<uint64_t> ColumnarPlan::BinCounts(uint32_t max_cardinality) const {
  std::vector<uint64_t> counts(max_cardinality + 1, 0);
  const size_t n = num_placements();
  for (size_t i = 0; i < n; ++i) {
    if (cardinality_[i] <= max_cardinality) {
      counts[cardinality_[i]] += copies_[i];
    }
  }
  return counts;
}

uint64_t ColumnarPlan::TotalBinInstances() const {
  uint64_t total = 0;
  const size_t n = num_placements();
  for (size_t i = 0; i < n; ++i) total += copies_[i];
  return total;
}

std::vector<double> ColumnarPlan::PerTaskReliability(const BinProfile& profile,
                                                     size_t n) const {
  // Per-cardinality log-weight table, then one flat sweep: placement i
  // scatters `copies * w[l]` into theta over its id range.
  const std::vector<double>& log_weights = profile.log_weights();
  std::vector<double> theta(n, 0.0);
  const size_t placements = num_placements();
  size_t begin = 0;
  for (size_t i = 0; i < placements; ++i) {
    const size_t end = ends_[i];
    const double w = log_weights[cardinality_[i] - 1] *
                     static_cast<double>(copies_[i]);
    for (size_t k = begin; k < end; ++k) {
      const TaskId id = task_ids_[k];
      if (id < n) theta[id] += w;
    }
    begin = end;
  }
  std::vector<double> rel(n);
  for (size_t i = 0; i < n; ++i) rel[i] = InverseLogReduction(theta[i]);
  return rel;
}

std::string ColumnarPlan::Summary(const BinProfile& profile) const {
  std::vector<uint64_t> counts = BinCounts(profile.max_cardinality());
  std::string out = "plan {";
  bool first = true;
  char buf[64];
  for (uint32_t l = 1; l < counts.size(); ++l) {
    if (counts[l] == 0) continue;
    std::snprintf(buf, sizeof(buf), "%s%llu x b%u", first ? "" : ", ",
                  static_cast<unsigned long long>(counts[l]), l);
    out += buf;
    first = false;
  }
  std::snprintf(buf, sizeof(buf), "} cost=%.4f", TotalCost(profile));
  out += buf;
  return out;
}

}  // namespace slade
