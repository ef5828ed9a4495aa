#include "engine/opq_cache.h"

#include <algorithm>
#include <cstring>

#include "common/math_util.h"
#include "common/stopwatch.h"

namespace slade {

namespace {

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// Approximate bookkeeping cost of one entry beyond the queue itself:
/// the LRU list node, the index bucket slot and its share of the map node.
constexpr uint64_t kNodeOverheadBytes = 128;

bool SameProfile(const std::vector<TaskBin>& a, const BinProfile& b) {
  const std::vector<TaskBin>& bins = b.bins();
  if (a.size() != bins.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].cardinality != bins[i].cardinality ||
        a[i].confidence != bins[i].confidence || a[i].cost != bins[i].cost) {
      return false;
    }
  }
  return true;
}

}  // namespace

uint64_t OpqCache::ProfileFingerprint(const BinProfile& profile) {
  uint64_t h = UINT64_C(0x51ade);
  for (const TaskBin& bin : profile.bins()) {
    h = HashCombine(h, bin.cardinality);
    h = HashCombine(h, DoubleBits(bin.confidence));
    h = HashCombine(h, DoubleBits(bin.cost));
  }
  return h;
}

OpqCache::OpqCache(OpqCacheOptions options)
    : options_(options),
      governor_(options_.max_bytes, options_.max_entries) {}

uint64_t OpqCache::EntryBytes(const Entry& entry) {
  uint64_t bytes = sizeof(Entry) + kNodeOverheadBytes +
                   entry.profile_bins.capacity() * sizeof(TaskBin);
  if (entry.queue != nullptr) bytes += entry.queue->EstimatedBytes();
  return bytes;
}

OpqCache::NodeIt OpqCache::EvictNodeLocked(NodeIt it) {
  auto bucket_it = index_.find(it->key);
  if (bucket_it != index_.end()) {
    auto& chain = bucket_it->second;
    chain.erase(std::remove(chain.begin(), chain.end(), it), chain.end());
    if (chain.empty()) index_.erase(bucket_it);
  }
  governor_.Release(it->entry->charged_bytes, 1);
  it->entry->resident = false;
  counters_.evictions += 1;
  return lru_.erase(it);
}

void OpqCache::EnforceCapacityLocked(const Entry* keep) {
  auto it = lru_.end();
  while (governor_.OverCapacity() && it != lru_.begin()) {
    --it;
    if (it->entry.get() != keep) it = EvictNodeLocked(it);
  }
}

Result<OpqCache::Lookup> OpqCache::GetOrBuild(const BinProfile& profile,
                                              double threshold,
                                              const OpqBuildOptions& options,
                                              uint64_t salt) {
  // The salt is folded in before the mask so the fingerprint_mask test
  // hook can still force cross-salt collisions onto one key; the
  // structural guard below then disambiguates on (salt, bins).
  const uint64_t fingerprint =
      HashCombine(ProfileFingerprint(profile), salt) & options_.fingerprint_mask;
  const Key key{fingerprint, DoubleBits(threshold)};

  std::shared_ptr<Entry> entry;
  bool inserted = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& chain = index_[key];
    for (const NodeIt& it : chain) {
      if (it->entry->salt == salt &&
          SameProfile(it->entry->profile_bins, profile)) {
        entry = it->entry;
        // Refresh recency: move the node to the LRU front.
        lru_.splice(lru_.begin(), lru_, it);
        counters_.hits += 1;
        break;
      }
    }
    if (entry == nullptr) {
      if (!chain.empty()) counters_.collisions += 1;
      counters_.misses += 1;
      entry = std::make_shared<Entry>();
      entry->profile_bins = profile.bins();
      entry->salt = salt;
      lru_.push_front(Node{key, entry});
      chain.push_back(lru_.begin());
      inserted = true;
      // Charge the entry slot now; its bytes follow once the build
      // finishes.
      governor_.Charge(0, 1);
      EnforceCapacityLocked(entry.get());
    }
  }

  // The cache lock is released before the (potentially long) build so
  // other keys proceed concurrently; racers on the same key serialize here.
  std::lock_guard<std::mutex> build_lock(entry->build_mutex);
  if (!entry->done) {
    OpqBuildStats stats;
    Stopwatch build_watch;
    auto built = BuildOpq(profile, threshold, options, &stats);
    const double build_seconds = build_watch.ElapsedSeconds();
    if (built.ok()) {
      entry->queue = std::make_shared<const OptimalPriorityQueue>(
          std::move(built).ValueOrDie());
    } else {
      entry->error = built.status();
    }
    entry->done = true;

    const uint64_t bytes = EntryBytes(*entry);
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.builds += 1;
    counters_.build_stats.Accumulate(stats);
    counters_.build_seconds += build_seconds;
    if (entry->resident) {
      // Not evicted while building: charge the real size. An entry
      // evicted mid-build is never charged -- it lives on only through
      // the queue shared_ptr its builder and racers hold.
      entry->charged_bytes = bytes;
      governor_.Charge(bytes, 0);
      EnforceCapacityLocked(entry.get());
    }
  }
  if (!entry->error.ok()) return entry->error;
  return Lookup{entry->queue, /*hit=*/!inserted};
}

size_t OpqCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

CacheStats OpqCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  CacheStats stats = counters_;
  stats.entries = lru_.size();
  const GovernorCounters governed = governor_.counters();
  stats.bytes = governed.bytes;
  stats.peak_bytes = governed.peak_bytes;
  stats.peak_entries = governed.peak_units;
  return stats;
}

void OpqCache::Clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (Node& node : lru_) {
    governor_.Release(node.entry->charged_bytes, 1);
    node.entry->resident = false;
  }
  lru_.clear();
  index_.clear();
}

size_t OpqCache::EvictBySalt(uint64_t salt) {
  std::lock_guard<std::mutex> lock(mutex_);
  size_t evicted = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->entry->salt == salt) {
      it = EvictNodeLocked(it);
      evicted += 1;
    } else {
      ++it;
    }
  }
  return evicted;
}

void OpqCache::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_ = CacheStats{};
}

}  // namespace slade
