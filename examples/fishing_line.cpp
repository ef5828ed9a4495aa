// Fishing-line discovery (paper Example 1): a large-scale screening task
// over satellite image tiles with heterogeneous reliability requirements.
//
// Tiles covering marine protected areas must not miss a fishing line
// (t = 0.99), open-ocean tiles are standard (t = 0.9), and coastal tiles
// that are independently patrolled only need t = 0.8. The task is
// decomposed with OPQ-Extended (Algorithm 5) and compared against the
// naive "every tile individually, repeated until reliable" strategy and
// against Greedy.

#include <cstdio>
#include <iostream>

#include "binmodel/profile_model.h"
#include "binmodel/task.h"
#include "common/math_util.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"
#include "solver/greedy_solver.h"
#include "solver/opq_extended_solver.h"
#include "solver/plan_validator.h"

namespace {

constexpr size_t kProtectedTiles = 4'000;
constexpr size_t kOpenOceanTiles = 30'000;
constexpr size_t kCoastalTiles = 6'000;

}  // namespace

int main() {
  using namespace slade;

  // The satellite-screening task behaves like the Jelly visual-comparison
  // task: a binary shape-detection question per tile.
  auto profile_result = BuildProfile(JellyModel(), 20);
  if (!profile_result.ok()) {
    std::cerr << profile_result.status().ToString() << "\n";
    return 1;
  }
  const BinProfile& profile = *profile_result;

  std::vector<double> thresholds;
  thresholds.reserve(kProtectedTiles + kOpenOceanTiles + kCoastalTiles);
  thresholds.insert(thresholds.end(), kProtectedTiles, 0.99);
  thresholds.insert(thresholds.end(), kOpenOceanTiles, 0.90);
  thresholds.insert(thresholds.end(), kCoastalTiles, 0.80);
  auto task = CrowdsourcingTask::FromThresholds(std::move(thresholds));
  if (!task.ok()) {
    std::cerr << task.status().ToString() << "\n";
    return 1;
  }

  std::printf("Fishing-line discovery: %zu tiles "
              "(%zu protected @0.99, %zu open ocean @0.90, "
              "%zu coastal @0.80)\n\n",
              task->size(), kProtectedTiles, kOpenOceanTiles, kCoastalTiles);
  std::cout << profile.ToString() << "\n";

  TablePrinter table(
      {"Strategy", "Cost (USD)", "Bins posted", "Time (s)", "Feasible"});

  // Naive plan: each tile processed individually until its threshold is
  // met (the "one way" of Example 1).
  {
    Stopwatch watch;
    ColumnarPlan naive;
    const double w1 = profile.bin(1).log_weight();
    for (TaskId id = 0; id < task->size(); ++id) {
      const auto copies = static_cast<uint32_t>(
          std::ceil(task->theta(id) / w1 - 1e-12));
      naive.Add(1, copies, {id});
    }
    auto report = ValidatePlan(naive, *task, profile);
    table.AddRow({"Individual tiles (b1 only)",
                  TablePrinter::FormatDouble(naive.TotalCost(profile), 2),
                  std::to_string(naive.TotalBinInstances()),
                  TablePrinter::FormatDouble(watch.ElapsedSeconds(), 3),
                  report->feasible ? "yes" : "NO"});
  }

  for (auto* solver :
       std::initializer_list<Solver*>{new GreedySolver(),
                                      new OpqExtendedSolver()}) {
    Stopwatch watch;
    auto plan = solver->Solve(*task, profile);
    if (!plan.ok()) {
      std::cerr << solver->name() << ": " << plan.status().ToString()
                << "\n";
      return 1;
    }
    const double seconds = watch.ElapsedSeconds();
    auto report = ValidatePlan(*plan, *task, profile);
    table.AddRow({solver->name(),
                  TablePrinter::FormatDouble(plan->TotalCost(profile), 2),
                  std::to_string(plan->TotalBinInstances()),
                  TablePrinter::FormatDouble(seconds, 3),
                  report->feasible ? "yes" : "NO"});
    delete solver;
  }

  table.Print(std::cout);
  std::cout << "\nThe decomposer batches open-ocean and coastal tiles into "
               "large bins while the\nprotected tiles get extra redundancy "
               "-- the same money buys far more coverage\nthan posting "
               "every tile as its own HIT.\n";
  return 0;
}
