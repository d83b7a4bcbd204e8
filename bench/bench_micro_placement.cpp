// google-benchmark micro benchmarks for the flat-arena Placement storage:
// the assign / serverLoad / shares hot loops, plus the arena-recycled
// construction path that local search and repeated solves ride on. The BENCH_table1.json "micro_placement" section tracks the same
// loops with plain chrono timers so the trajectory is committed.

#include <benchmark/benchmark.h>

#include "core/placement.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "extensions/objective.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance instanceOfSize(int size) {
  GeneratorConfig config;
  config.minSize = config.maxSize = size;
  config.lambda = 0.55;
  config.unitCosts = true;
  return generateInstance(config, 17, static_cast<std::uint64_t>(size));
}

/// Closest-style assignment stream: every client wholly served by its parent.
void BM_AssignFlat(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  const Tree& tree = inst.tree;
  for (auto _ : state) {
    Placement p(tree.vertexCount());
    p.reserveShares(tree.clients().size());
    for (const VertexId c : tree.clients())
      p.assign(c, tree.parent(c), inst.requests[static_cast<std::size_t>(c)] + 1);
    benchmark::DoNotOptimize(p);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AssignFlat)->RangeMultiplier(2)->Range(128, 2048)->Complexity();

/// Same stream but through the arena-recycled construction path.
void BM_AssignArenaRecycled(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  const Tree& tree = inst.tree;
  PlacementArena arena;
  for (auto _ : state) {
    Placement p = arena.acquire(tree.vertexCount());
    for (const VertexId c : tree.clients())
      p.assign(c, tree.parent(c), inst.requests[static_cast<std::size_t>(c)] + 1);
    benchmark::DoNotOptimize(p);
    arena.recycle(std::move(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AssignArenaRecycled)->RangeMultiplier(2)->Range(128, 2048)->Complexity();

/// The bulk path: one assignRun per client instead of per-share assigns.
void BM_AssignRun(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  const Tree& tree = inst.tree;
  PlacementArena arena;
  for (auto _ : state) {
    Placement p = arena.acquire(tree.vertexCount());
    for (const VertexId c : tree.clients()) {
      const ServedShare share{tree.parent(c),
                              inst.requests[static_cast<std::size_t>(c)] + 1};
      p.assignRun(c, {&share, 1});
    }
    benchmark::DoNotOptimize(p);
    arena.recycle(std::move(p));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_AssignRun)->RangeMultiplier(2)->Range(128, 2048)->Complexity();

/// shares() scan as readCost() drives it: every share of every client.
void BM_SharesScan(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  const auto placement = solveMultipleHomogeneous(inst);
  if (!placement) {
    state.SkipWithError("Multiple solve failed");
    return;
  }
  for (auto _ : state) {
    Requests total = 0;
    for (const VertexId c : inst.tree.clients())
      for (const ServedShare& share : placement->shares(c)) total += share.amount;
    benchmark::DoNotOptimize(total);
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SharesScan)->RangeMultiplier(2)->Range(128, 2048)->Complexity();

/// End-to-end: the Multiple solve whose placement build dominated the s=1600
/// profile before the flat layout.
void BM_SolveMultiple(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(solveMultipleHomogeneous(inst));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SolveMultiple)->RangeMultiplier(2)->Range(128, 2048)->Complexity();

}  // namespace
}  // namespace treeplace
