// google-benchmark micro benchmarks for the LP/MIP substrate: simplex solve
// time on the Section 5 relaxations, warm dual re-solves of the bounded-
// variable workspace, and branch-and-bound cost of the refined lower bound,
// as functions of instance size.

#include <benchmark/benchmark.h>

#include "formulation/ilp.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "lp/simplex.hpp"
#include "lp/workspace.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance instanceOfSize(int size) {
  GeneratorConfig config;
  config.minSize = config.maxSize = size;
  config.lambda = 0.6;
  config.maxChildren = 2;
  config.heterogeneous = true;
  return generateInstance(config, 77, static_cast<std::uint64_t>(size));
}

void BM_BuildMultipleModel(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Relaxed;
  for (auto _ : state) {
    benchmark::DoNotOptimize(IlpFormulation(inst, Policy::Multiple, fo));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_BuildMultipleModel)->RangeMultiplier(2)->Range(32, 256)->Complexity();

void BM_SimplexMultipleRelaxation(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Relaxed;
  const IlpFormulation f(inst, Policy::Multiple, fo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solveLp(f.model()));
  }
  state.counters["rows"] = static_cast<double>(f.model().constraintCount());
  state.counters["cols"] = static_cast<double>(f.model().variableCount());
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimplexMultipleRelaxation)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->Complexity();

void BM_SimplexUpwardsRelaxation(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Relaxed;
  const IlpFormulation f(inst, Policy::Upwards, fo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lp::solveLp(f.model()));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_SimplexUpwardsRelaxation)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->Complexity();

/// Warm dual re-solve throughput under branching-style box updates: the
/// branch-and-bound node loop in miniature. Counters report the basis
/// height and the pivot/flip mix, so the bounded-variable layout (one row per
/// model constraint, no rows for ranges) is visible in the benchmark output,
/// not just in end-to-end timings.
void BM_WorkspaceResolveBoundedBoxes(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Relaxed;
  const IlpFormulation f(inst, Policy::Multiple, fo);
  lp::LpWorkspace workspace(f.model());
  if (workspace.solveCold() != lp::SolveStatus::Optimal) {
    state.SkipWithError("root LP not optimal");
    return;
  }
  // Alternate one placement indicator between fixed-closed and free — the
  // exact rhs-only perturbation a B&B node applies.
  int flip = 0;
  int branchVar = -1;
  for (const VertexId v : inst.tree.internals()) {
    branchVar = f.placementVar(v);
    if (branchVar >= 0) break;
  }
  for (auto _ : state) {
    workspace.setBounds(branchVar, 0.0, flip ? 0.0 : 1.0);
    flip ^= 1;
    lp::SolveStatus status = workspace.solveDual();
    if (status == lp::SolveStatus::IterationLimit) status = workspace.solveCold();
    benchmark::DoNotOptimize(status);
  }
  const lp::WarmStartStats& stats = workspace.stats();
  state.counters["structural_rows"] = static_cast<double>(stats.structuralRows);
  state.counters["dual_pivots_per_resolve"] =
      stats.warmSolves > 0 ? static_cast<double>(stats.dualIterations) /
                                 static_cast<double>(stats.warmSolves)
                           : 0.0;
  state.counters["bound_flips"] = static_cast<double>(stats.boundFlips);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_WorkspaceResolveBoundedBoxes)
    ->RangeMultiplier(2)
    ->Range(32, 256)
    ->Complexity();

void BM_RefinedLowerBound(benchmark::State& state) {
  const ProblemInstance inst = instanceOfSize(static_cast<int>(state.range(0)));
  const auto mb = runMixedBest(inst);
  LowerBoundOptions lbo;
  lbo.maxNodes = 60;
  if (mb) lbo.knownUpperBound = mb->cost;
  long nodes = 0;
  for (auto _ : state) {
    const LowerBoundResult lb = refinedLowerBound(inst, lbo);
    benchmark::DoNotOptimize(lb);
    nodes = lb.nodesExplored;
  }
  state.counters["bbNodes"] = static_cast<double>(nodes);
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_RefinedLowerBound)->RangeMultiplier(2)->Range(32, 256)->Complexity();

}  // namespace
}  // namespace treeplace
