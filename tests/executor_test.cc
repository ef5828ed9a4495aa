#include "simulator/executor.h"

#include <gtest/gtest.h>

#include "binmodel/profile_model.h"
#include "solver/opq_solver.h"
#include "solver/plan_validator.h"

namespace slade {
namespace {

PlatformConfig TestConfig(uint64_t seed = 31) {
  PlatformConfig config;
  config.model = JellyModel();
  config.seed = seed;
  config.skill_sigma = 0.0;
  return config;
}

TEST(ExecutorTest, EmptyPlanDetectsNothing) {
  Platform platform(TestConfig());
  ColumnarPlan plan;
  const BinProfile profile = BinProfile::PaperExample();
  auto report = ExecutePlan(platform, plan, profile, {true, false, true});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->positives, 2u);
  EXPECT_EQ(report->false_negatives, 2u);
  EXPECT_DOUBLE_EQ(report->positive_recall, 0.0);
  EXPECT_DOUBLE_EQ(report->total_cost, 0.0);
}

TEST(ExecutorTest, CostMatchesPlanCost) {
  Platform platform(TestConfig());
  const BinProfile profile = BuildProfile(JellyModel(), 5).ValueOrDie();
  ColumnarPlan plan;
  plan.Add(3, 2, {0, 1, 2});
  plan.Add(1, 1, {3});
  auto report =
      ExecutePlan(platform, plan, profile, {true, true, false, true});
  ASSERT_TRUE(report.ok());
  EXPECT_NEAR(report->total_cost, plan.TotalCost(profile), 1e-12);
  EXPECT_EQ(report->bins_posted, 3u);
}

TEST(ExecutorTest, RejectsOutOfRangeTask) {
  Platform platform(TestConfig());
  const BinProfile profile = BinProfile::PaperExample();
  ColumnarPlan plan;
  plan.Add(1, 1, {5});
  EXPECT_TRUE(ExecutePlan(platform, plan, profile, {true})
                  .status()
                  .IsOutOfRange());
}

TEST(ExecutorTest, AllNegativeGroundTruthGivesPerfectRecall) {
  Platform platform(TestConfig());
  const BinProfile profile = BinProfile::PaperExample();
  ColumnarPlan plan;
  plan.Add(1, 1, {0});
  auto report = ExecutePlan(platform, plan, profile, {false});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->positives, 0u);
  EXPECT_DOUBLE_EQ(report->positive_recall, 1.0);
}

TEST(ExecutorTest, MeasuredRecallMatchesPlannedReliability) {
  // Solve a 2000-task homogeneous instance at t=0.9, execute it, and
  // check the measured positive recall lands near (and statistically not
  // below) the planned reliability.
  const BinProfile profile = BuildProfile(JellyModel(), 12).ValueOrDie();
  auto task = CrowdsourcingTask::Homogeneous(2000, 0.9);
  OpqSolver solver;
  auto plan = solver.Solve(*task, profile);
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(ValidatePlan(*plan, *task, profile)->feasible);

  Platform platform(TestConfig(77));
  std::vector<bool> truth(2000, true);  // all positive: every task counts
  auto report = ExecutePlan(platform, *plan, profile, truth);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->positives, 2000u);

  // The plan guarantees Rel >= 0.9 per task; with per-task reliabilities
  // r_i >= 0.9 the empirical recall concentrates at mean(r_i) >= 0.9.
  // Allow 3-sigma sampling slack below 0.9.
  const double slack =
      3 * std::sqrt(0.9 * 0.1 / static_cast<double>(report->positives));
  EXPECT_GE(report->positive_recall, 0.9 - slack);
  EXPECT_NEAR(report->total_cost, plan->TotalCost(profile), 1e-9);
}

TEST(ExecutorTest, HigherThresholdYieldsHigherMeasuredRecall) {
  const BinProfile profile = BuildProfile(JellyModel(), 12).ValueOrDie();
  OpqSolver solver;
  double recalls[2];
  int idx = 0;
  for (double t : {0.85, 0.99}) {
    auto task = CrowdsourcingTask::Homogeneous(3000, t);
    auto plan = solver.Solve(*task, profile);
    ASSERT_TRUE(plan.ok());
    Platform platform(TestConfig(123));
    std::vector<bool> truth(3000, true);
    auto report = ExecutePlan(platform, *plan, profile, truth);
    ASSERT_TRUE(report.ok());
    recalls[idx++] = report->positive_recall;
  }
  EXPECT_GT(recalls[1], recalls[0]);
  EXPECT_GE(recalls[1], 0.985);
}

}  // namespace
}  // namespace slade
