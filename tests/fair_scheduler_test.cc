// Property tests for the deficit-round-robin flush scheduler and the
// per-tenant quotas (StreamingOptions::fairness).
//
// The quota tests are fully deterministic: huge flush caps + a huge
// deadline park every admission, so quota decisions are observable
// without races (same idiom as streaming_backpressure_test.cc). The
// starvation test is a property over delivery order that holds under any
// thread interleaving once a backlog exists: a heavy tenant's backlog
// cannot push a light tenant's submissions behind all of its own.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "durability/hooks.h"
#include "engine/streaming_engine.h"
#include "plan_signature.h"
#include "workload/threshold_gen.h"
#include "workload/workload.h"

namespace slade {
namespace {

CrowdsourcingTask FixedTask(size_t num_atomic, uint64_t seed) {
  ThresholdSpec spec;
  spec.family = ThresholdFamily::kNormal;
  spec.mu = 0.9;
  spec.sigma = 0.03;
  spec.clamp_lo = 0.6;
  spec.clamp_hi = 0.98;
  auto thresholds = GenerateThresholds(spec, num_atomic, seed);
  EXPECT_TRUE(thresholds.ok());
  auto task =
      CrowdsourcingTask::FromThresholds(std::move(thresholds).ValueOrDie());
  EXPECT_TRUE(task.ok());
  return std::move(task).ValueOrDie();
}

/// Huge flush caps + huge deadline: nothing flushes until Flush()/Drain().
StreamingOptions ParkedOptions() {
  StreamingOptions options;
  options.max_pending_submissions = 1u << 20;
  options.max_pending_atomic_tasks = 1u << 20;
  options.max_delay_seconds = 3600.0;
  return options;
}

// ---------------------------------------------------------------------------
// Per-tenant quotas
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, QuotaExhaustionRejectsOnlyTheOffendingTenant) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();
  options.fairness.enabled = true;
  options.fairness.tenant_max_pending_atomic_tasks = 4;
  StreamingEngine engine(*profile, options);

  // "hog" fills its quota exactly; the submission parks. The bystander
  // parks too (its own quota is untouched by hog's usage). Check the
  // queue before any rejection: a rejection kicks the worker, so the
  // parked submissions may flush at any point afterwards.
  auto hog_first = engine.Submit("hog", {FixedTask(4, 1)});
  auto bystander = engine.Submit("bystander", {FixedTask(2, 3)});
  EXPECT_EQ(engine.stats().queue_submissions, 2u);
  // Anything more from "hog" is over quota and fails fast.
  auto hog_second = engine.Submit("hog", {FixedTask(1, 2)});
  auto hog_result = hog_second.get();
  ASSERT_FALSE(hog_result.ok());
  EXPECT_TRUE(hog_result.status().IsResourceExhausted())
      << hog_result.status().ToString();

  StreamingStats stats = engine.stats();
  EXPECT_EQ(stats.rejected_tenant_quota, 1u);
  EXPECT_EQ(stats.rejected, 0u);  // quota rejections are counted apart

  engine.Drain();
  EXPECT_TRUE(hog_first.get().ok());
  EXPECT_TRUE(bystander.get().ok());

  // Per-tenant counters tell the same story.
  bool saw_hog = false, saw_bystander = false;
  for (const TenantStats& tenant : engine.tenant_stats()) {
    if (tenant.tenant == "hog") {
      saw_hog = true;
      EXPECT_EQ(tenant.rejected_quota, 1u);
      EXPECT_EQ(tenant.delivered, 1u);
      EXPECT_GT(tenant.billed_cost, 0.0);
    } else if (tenant.tenant == "bystander") {
      saw_bystander = true;
      EXPECT_EQ(tenant.rejected_quota, 0u);
      EXPECT_EQ(tenant.delivered, 1u);
    }
  }
  EXPECT_TRUE(saw_hog);
  EXPECT_TRUE(saw_bystander);
}

TEST(FairSchedulerTest, EmptyQueueAdmitsOneSubmissionOverQuota) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();
  options.fairness.enabled = true;
  options.fairness.tenant_max_pending_atomic_tasks = 2;
  StreamingEngine engine(*profile, options);

  // One submission far over the quota still admits when the tenant's
  // queue is empty -- a quota smaller than one submission cannot starve.
  auto big = engine.Submit("whale", {FixedTask(6, 7), FixedTask(6, 8)});
  EXPECT_EQ(engine.stats().queue_submissions, 1u);
  // But with the queue now nonempty, the quota bites.
  auto refused = engine.Submit("whale", {FixedTask(1, 9)});
  auto refused_result = refused.get();
  ASSERT_FALSE(refused_result.ok());
  EXPECT_TRUE(refused_result.status().IsResourceExhausted());

  engine.Drain();
  EXPECT_TRUE(big.get().ok());
  EXPECT_EQ(engine.stats().rejected_tenant_quota, 1u);
}

TEST(FairSchedulerTest, ByteQuotaIsEnforcedIndependently) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options = ParkedOptions();
  options.fairness.enabled = true;
  // Atomic-task quota is roomy; the byte quota is what trips.
  options.fairness.tenant_max_pending_atomic_tasks = 1u << 20;
  options.fairness.tenant_max_pending_bytes = 64;
  StreamingEngine engine(*profile, options);

  // Any submission's footprint exceeds 64 bytes, so the first one only
  // gets in via the empty-queue rule...
  auto first = engine.Submit("t", {FixedTask(8, 11)});
  // ...and the second trips the byte quota even though it is tiny.
  auto second = engine.Submit("t", {FixedTask(1, 12)});
  auto second_result = second.get();
  ASSERT_FALSE(second_result.ok());
  EXPECT_TRUE(second_result.status().IsResourceExhausted());
  // The message names only the quota that tripped.
  const std::string message = second_result.status().ToString();
  EXPECT_NE(message.find("(64 bytes pending cap)"), std::string::npos)
      << message;
  EXPECT_EQ(message.find("atomic tasks"), std::string::npos) << message;
  engine.Drain();
  EXPECT_TRUE(first.get().ok());
}

// ---------------------------------------------------------------------------
// Starvation resistance
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, HeavyBacklogCannotStarveALightTenant) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options;
  // Batches are bounded (8 submissions' worth of atomic tasks), the
  // deadline is parked: flushing is driven purely by the size trigger.
  options.max_pending_atomic_tasks = 64;
  options.max_pending_submissions = 1u << 20;
  options.max_delay_seconds = 3600.0;
  options.fairness.enabled = true;
  options.fairness.quantum_atomic_tasks = 8;  // one submission per visit
  StreamingEngine engine(*profile, options);

  constexpr int kHeavy = 120;
  constexpr int kLight = 12;
  std::vector<std::future<Result<RequesterPlan>>> heavy_futures;
  std::vector<std::future<Result<RequesterPlan>>> light_futures;
  // The heavy tenant's entire backlog is admitted FIRST; the light tenant
  // only shows up afterwards. Under plain FIFO, every light submission
  // would land in the final micro-batches, behind all of the heavy ones.
  for (int i = 0; i < kHeavy; ++i) {
    heavy_futures.push_back(
        engine.Submit("heavy", {FixedTask(8, 100 + static_cast<uint64_t>(i))}));
  }
  for (int i = 0; i < kLight; ++i) {
    light_futures.push_back(
        engine.Submit("light", {FixedTask(8, 900 + static_cast<uint64_t>(i))}));
  }
  engine.Drain();

  uint64_t heavy_last_flush = 0;
  for (auto& future : heavy_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    heavy_last_flush = std::max(heavy_last_flush, result->flush_id);
  }
  uint64_t light_last_flush = 0;
  double light_mean_flush = 0.0;
  for (auto& future : light_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    light_last_flush = std::max(light_last_flush, result->flush_id);
    light_mean_flush += static_cast<double>(result->flush_id);
  }
  light_mean_flush /= kLight;

  // DRR interleaves the tenants: the light tenant finishes while the
  // heavy backlog is still flushing. FIFO would give
  // light_last_flush == heavy_last_flush (light admitted last).
  EXPECT_LT(light_last_flush, heavy_last_flush);
  // And on average the light tenant rides early batches, not the tail.
  EXPECT_LT(light_mean_flush, static_cast<double>(heavy_last_flush) * 0.75);

  const StreamingStats stats = engine.stats();
  EXPECT_EQ(stats.submissions, static_cast<uint64_t>(kHeavy + kLight));
  EXPECT_EQ(stats.rejected_tenant_quota, 0u);
}

TEST(FairSchedulerTest, WeightsScaleATenantsShare) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());
  StreamingOptions options;
  options.max_pending_atomic_tasks = 64;
  options.max_pending_submissions = 1u << 20;
  options.max_delay_seconds = 3600.0;
  options.fairness.enabled = true;
  options.fairness.quantum_atomic_tasks = 8;
  options.fairness.weights["gold"] = 4;  // 4x the credit per visit
  StreamingEngine engine(*profile, options);

  // Equal backlogs; gold should drain well before the default-weight
  // tenant despite being admitted second.
  constexpr int kEach = 48;
  std::vector<std::future<Result<RequesterPlan>>> free_futures;
  std::vector<std::future<Result<RequesterPlan>>> gold_futures;
  for (int i = 0; i < kEach; ++i) {
    free_futures.push_back(
        engine.Submit("free", {FixedTask(8, 300 + static_cast<uint64_t>(i))}));
  }
  for (int i = 0; i < kEach; ++i) {
    gold_futures.push_back(
        engine.Submit("gold", {FixedTask(8, 500 + static_cast<uint64_t>(i))}));
  }
  engine.Drain();

  uint64_t free_last = 0, gold_last = 0;
  for (auto& future : free_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    free_last = std::max(free_last, result->flush_id);
  }
  for (auto& future : gold_futures) {
    auto result = future.get();
    ASSERT_TRUE(result.ok());
    gold_last = std::max(gold_last, result->flush_id);
  }
  // gold was admitted after free yet finishes no later: weight 4 takes 4
  // submissions per scheduler visit to free's 1.
  EXPECT_LE(gold_last, free_last);

  for (const TenantStats& tenant : engine.tenant_stats()) {
    if (tenant.tenant == "gold") {
      EXPECT_EQ(tenant.weight, 4u);
    }
    if (tenant.tenant == "free") {
      EXPECT_EQ(tenant.weight, 1u);
    }
    EXPECT_EQ(tenant.delivered, static_cast<uint64_t>(kEach));
  }
}

// ---------------------------------------------------------------------------
// Placement differential: fairness only reorders, never re-plans
// ---------------------------------------------------------------------------

TEST(FairSchedulerTest, FairnessNeverChangesPlacements) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());

  // The same 24-submission, 3-tenant workload through four differently
  // configured engines. Under BatchSharing::kIsolated every configuration
  // must produce byte-identical plan slices -- fairness and batching
  // change only delivery timing.
  auto run = [&](StreamingOptions options) {
    StreamingEngine engine(*profile, options);
    std::vector<std::future<Result<RequesterPlan>>> futures;
    const char* tenants[3] = {"a", "b", "c"};
    for (int i = 0; i < 24; ++i) {
      futures.push_back(engine.Submit(
          tenants[i % 3], {FixedTask(1 + static_cast<size_t>(i % 5),
                                     40 + static_cast<uint64_t>(i)),
                           FixedTask(3, 70 + static_cast<uint64_t>(i))}));
    }
    engine.Drain();
    std::vector<std::string> signatures;
    std::vector<double> costs;
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(result.ok());
      signatures.push_back(UnorderedPlanSignature(result->plan));
      costs.push_back(result->cost);
    }
    return std::make_pair(signatures, costs);
  };

  StreamingOptions fifo;           // fairness off: the baseline
  fifo.max_delay_seconds = 0.005;
  StreamingOptions fair = fifo;    // fairness on, default weights
  fair.fairness.enabled = true;
  StreamingOptions skewed = fair;  // tiny quantum + skewed weights:
  skewed.fairness.quantum_atomic_tasks = 1;  // maximal reordering
  skewed.fairness.weights["a"] = 7;
  skewed.max_pending_atomic_tasks = 6;  // and tiny micro-batches
  StreamingOptions threaded = fair;  // different solver parallelism
  threaded.num_threads = 2;

  const auto baseline = run(fifo);
  for (const StreamingOptions& variant : {fair, skewed, threaded}) {
    const auto other = run(variant);
    ASSERT_EQ(other.first.size(), baseline.first.size());
    for (size_t i = 0; i < baseline.first.size(); ++i) {
      EXPECT_EQ(other.first[i], baseline.first[i]) << "submission " << i;
      EXPECT_DOUBLE_EQ(other.second[i], baseline.second[i]);
    }
  }
}

TEST(FairSchedulerTest, SingleTenantFairnessMatchesFifoBatching) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());

  // With one tenant the DRR ring degenerates to the FIFO queue. Drive
  // flushing deterministically (parked engine, explicit Drain cycles):
  // every submission must land in the same flush ordinal, with the same
  // placements, whether fairness is on or off.
  auto run = [&](bool fairness_enabled) {
    StreamingOptions options = ParkedOptions();
    options.fairness.enabled = fairness_enabled;
    StreamingEngine engine(*profile, options);
    std::vector<std::future<Result<RequesterPlan>>> futures;
    for (int wave = 0; wave < 3; ++wave) {
      for (int i = 0; i < 7; ++i) {
        futures.push_back(engine.Submit(
            "solo",
            {FixedTask(3, static_cast<uint64_t>(600 + 10 * wave + i))}));
      }
      engine.Drain();  // each wave becomes exactly one micro-batch
    }
    std::vector<std::pair<uint64_t, std::string>> delivered;
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(result.ok());
      delivered.emplace_back(result->flush_id,
                             UnorderedPlanSignature(result->plan));
    }
    return delivered;
  };

  const auto fifo = run(false);
  const auto fair = run(true);
  ASSERT_EQ(fifo.size(), fair.size());
  for (size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fair[i].first, fifo[i].first) << "flush id, submission " << i;
    EXPECT_EQ(fair[i].second, fifo[i].second)
        << "placements, submission " << i;
  }
}

/// In-memory durability hooks whose outcome barrier blocks until
/// Release(): it holds the engine worker inside a flush, so submissions
/// admitted meanwhile pile up into one backlog.
class LatchedHooks : public DurabilityHooks {
 public:
  std::string GenerateSubmissionId() override {
    return "latched-" + std::to_string(next_id_++);
  }
  Status RecordAdmit(const std::string&, const std::string&,
                     const std::vector<CrowdsourcingTask>&) override {
    return Status::OK();
  }
  Status RecordComplete(const std::string&,
                        const SubmissionOutcome&) override {
    return Status::OK();
  }
  Status RecordReject(const std::string&) override { return Status::OK(); }
  Status SyncOutcomes() override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [&] { return released_; });
    return Status::OK();
  }
  bool LookupCompleted(const std::string&,
                       SubmissionOutcome*) const override {
    return false;
  }

  /// Blocks until the worker is inside its first outcome barrier.
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mutex_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::mutex mutex_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

TEST(FairSchedulerTest, BacklogBehindABusyWorkerKeepsTheBatchRule) {
  auto profile = BuildProfile(MakeModel(DatasetKind::kJelly), 6);
  ASSERT_TRUE(profile.ok());

  // A backlog of 7 single-tenant submissions builds up while the worker
  // is held inside flush 0. Fairness off flushes everything pending in
  // one micro-batch, past the 3-submission cap; fairness on (one tenant)
  // cuts it at the cap into flushes of 3, 3 and 1. Placements do not
  // depend on the cut.
  auto run = [&](bool fairness_enabled) {
    LatchedHooks hooks;  // declared first: must outlive the engine
    StreamingOptions options;
    options.max_pending_submissions = 3;
    options.max_pending_atomic_tasks = 1u << 20;
    options.max_delay_seconds = 3600.0;
    options.fairness.enabled = fairness_enabled;
    options.durability = &hooks;
    StreamingEngine engine(*profile, options);

    auto first = engine.Submit("solo", {FixedTask(3, 700)});
    engine.Flush();
    hooks.WaitEntered();
    std::vector<std::future<Result<RequesterPlan>>> futures;
    for (int i = 0; i < 7; ++i) {
      futures.push_back(engine.Submit(
          "solo", {FixedTask(2 + static_cast<size_t>(i % 3),
                             710 + static_cast<uint64_t>(i))}));
    }
    EXPECT_EQ(engine.stats().queue_submissions, 7u);
    hooks.Release();
    engine.Drain();

    auto first_result = first.get();
    EXPECT_TRUE(first_result.ok());
    EXPECT_EQ(first_result->flush_id, 0u);
    std::vector<std::pair<uint64_t, std::string>> delivered;
    for (auto& future : futures) {
      auto result = future.get();
      EXPECT_TRUE(result.ok());
      delivered.emplace_back(result->flush_id,
                             UnorderedPlanSignature(result->plan));
    }
    return delivered;
  };

  const auto fifo = run(false);
  const auto fair = run(true);
  ASSERT_EQ(fifo.size(), 7u);
  ASSERT_EQ(fair.size(), 7u);
  const uint64_t fair_flushes[7] = {1, 1, 1, 2, 2, 2, 3};
  for (size_t i = 0; i < fifo.size(); ++i) {
    EXPECT_EQ(fifo[i].first, 1u) << "fairness off, submission " << i;
    EXPECT_EQ(fair[i].first, fair_flushes[i]) << "fairness on, submission "
                                              << i;
    EXPECT_EQ(fair[i].second, fifo[i].second)
        << "placements, submission " << i;
  }
}

}  // namespace
}  // namespace slade
