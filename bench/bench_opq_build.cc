// OPQ construction kernel: the production iterative zero-allocation
// builder (BuildOpq) versus the recursive reference enumerator
// (BuildOpqReference), swept over profiles x thresholds x Lemma 1 pruning
// on/off. Queues are verified element-for-element identical before any
// timing is reported, and a global allocation counter checks the
// production builder's no-per-node-allocation contract: its allocation
// count must scale with frontier insertions (rare), never with visited
// nodes.
//
// Emits BENCH_opq_build.json. `--smoke` (or SLADE_BENCH_FAST=1) shrinks
// the sweep for CI.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "bench_util.h"
#include "binmodel/profile_model.h"
#include "solver/opq_builder.h"

namespace {

using namespace slade;

struct BuildRun {
  double seconds = 0.0;       // per build, averaged over reps
  uint64_t allocations = 0;   // per build, single measured run
  OpqBuildStats stats;
  size_t queue_size = 0;
};

// Times `build` by repeating it until ~0.2s of wall time accumulates
// (min 3 reps), then measures one extra run's allocation delta.
template <typename BuildFn>
BuildRun Measure(BuildFn&& build) {
  BuildRun run;
  // Warmup + correctness probe.
  {
    auto queue = build(&run.stats);
    if (!queue.ok()) {
      std::cerr << "build failed: " << queue.status().ToString() << "\n";
      std::exit(1);
    }
    run.queue_size = queue->size();
  }
  uint64_t reps = 0;
  Stopwatch watch;
  do {
    OpqBuildStats stats;
    auto queue = build(&stats);
    if (!queue.ok()) std::exit(1);
    ++reps;
  } while (watch.ElapsedSeconds() < 0.2 && reps < 10'000);
  run.seconds = watch.ElapsedSeconds() / static_cast<double>(reps);

  const uint64_t before = slade_bench::AllocationCount();
  {
    OpqBuildStats stats;
    auto queue = build(&stats);
    if (!queue.ok()) std::exit(1);
    run.allocations =
        slade_bench::AllocationCount() - before;
  }
  return run;
}

void RequireIdentical(const OptimalPriorityQueue& fast,
                      const OptimalPriorityQueue& reference,
                      const std::string& config) {
  if (fast.size() != reference.size()) {
    std::cerr << config << ": queue size mismatch (" << fast.size() << " vs "
              << reference.size() << ")\n";
    std::exit(1);
  }
  for (size_t i = 0; i < fast.size(); ++i) {
    const Combination& a = fast.element(i);
    const Combination& b = reference.element(i);
    if (a.lcm() != b.lcm() || a.unit_cost() != b.unit_cost() ||
        a.parts() != b.parts()) {
      std::cerr << config << ": element " << i << " differs:\n  "
                << a.ToString() << "\n  " << b.ToString() << "\n";
      std::exit(1);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = slade_bench::FastMode();
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }

  std::cout << "OPQ construction kernel: iterative zero-allocation builder "
               "vs recursive reference\n(identical queues verified per "
               "configuration before timing).\n";

  std::vector<DatasetKind> datasets = {DatasetKind::kJelly,
                                       DatasetKind::kSmic};
  std::vector<uint32_t> cardinalities = {12, 20, 28};
  std::vector<double> thresholds = {0.9, 0.95, 0.99, 0.999};
  if (smoke) {
    datasets = {DatasetKind::kSmic};
    cardinalities = {20};
    thresholds = {0.9, 0.99};
  }

  slade_bench::BenchJsonWriter json("opq_build");
  TablePrinter table({"dataset", "m", "t", "pruning", "nodes", "queue",
                      "ref (ms)", "fast (ms)", "speedup", "fast allocs"});
  double worst_speedup = -1.0;
  double best_speedup = -1.0;

  for (DatasetKind dataset : datasets) {
    for (uint32_t m : cardinalities) {
      const BinProfile profile =
          BuildProfile(MakeModel(dataset), m).ValueOrDie();
      for (double t : thresholds) {
        for (bool pruning : {true, false}) {
          OpqBuildOptions options;
          options.enable_partial_pruning = pruning;
          const std::string config = std::string(DatasetKindName(dataset)) +
                                     " m=" + std::to_string(m) +
                                     " t=" + std::to_string(t) +
                                     (pruning ? " pruned" : " full");

          auto fast_queue = BuildOpq(profile, t, options);
          auto ref_queue = BuildOpqReference(profile, t, options);
          if (!fast_queue.ok() || !ref_queue.ok()) {
            std::cerr << config << ": build failed\n";
            return 1;
          }
          RequireIdentical(*fast_queue, *ref_queue, config);

          BuildRun fast = Measure([&](OpqBuildStats* stats) {
            return BuildOpq(profile, t, options, stats);
          });
          BuildRun ref = Measure([&](OpqBuildStats* stats) {
            return BuildOpqReference(profile, t, options, stats);
          });
          const double speedup = ref.seconds / fast.seconds;
          worst_speedup = worst_speedup < 0.0
                              ? speedup
                              : std::min(worst_speedup, speedup);
          best_speedup = std::max(best_speedup, speedup);

          // The zero-per-node-allocation contract: the production builder
          // may allocate for setup (stack, SoA copies, final Combinations)
          // and per frontier insertion, but never per visited node. The
          // bound is deliberately generous on the insertion term and
          // stingy on the node term.
          const uint64_t allowance =
              256 + 32 * (fast.stats.insertions + fast.queue_size);
          if (fast.allocations > allowance) {
            std::cerr << config << ": production builder allocated "
                      << fast.allocations << " times for "
                      << fast.stats.nodes_visited << " nodes / "
                      << fast.stats.insertions
                      << " insertions (allowance " << allowance
                      << ") -- per-node allocation has crept back in\n";
            return 1;
          }

          table.AddRow({DatasetKindName(dataset), std::to_string(m),
                        TablePrinter::FormatDouble(t, 3),
                        pruning ? "on" : "off",
                        std::to_string(fast.stats.nodes_visited),
                        std::to_string(fast.queue_size),
                        TablePrinter::FormatDouble(ref.seconds * 1e3, 3),
                        TablePrinter::FormatDouble(fast.seconds * 1e3, 3),
                        TablePrinter::FormatDouble(speedup, 1),
                        std::to_string(fast.allocations)});

          json.BeginRecord();
          json.Field("dataset", DatasetKindName(dataset));
          json.Field("m", static_cast<double>(m));
          json.Field("threshold", t);
          json.Field("pruning", pruning ? "on" : "off");
          json.Field("nodes_visited",
                     static_cast<double>(fast.stats.nodes_visited));
          json.Field("insertions",
                     static_cast<double>(fast.stats.insertions));
          json.Field("queue_size", static_cast<double>(fast.queue_size));
          json.Field("reference_seconds", ref.seconds);
          json.Field("fast_seconds", fast.seconds);
          json.Field("speedup", speedup);
          json.Field("fast_allocations",
                     static_cast<double>(fast.allocations));
          json.Field("reference_allocations",
                     static_cast<double>(ref.allocations));
        }
      }
    }
  }

  PrintBanner(std::cout,
              "OPQ build: reference vs production builder (per-build wall "
              "time; allocs = heap allocations per production build)");
  table.Print(std::cout);
  std::printf("speedup range: %.1fx .. %.1fx\n", worst_speedup,
              best_speedup);
  json.Write();
  return 0;
}
