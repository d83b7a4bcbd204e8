// The batched multi-instance driver vs per-instance serial execution: same
// results, no cross-instance state in the recycled arena sets.
#include "experiments/batch_driver.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <string>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "experiments/runner.hpp"
#include "formulation/lower_bound.hpp"
#include "heuristics/heuristic.hpp"
#include "test_util.hpp"
#include "tree/io.hpp"
#include "tree/paper_instances.hpp"

#ifndef TREEPLACE_INSTANCES_DIR
#define TREEPLACE_INSTANCES_DIR "instances"
#endif

namespace treeplace {
namespace {

ProblemInstance loadFile(const std::string& name) {
  const std::string path = std::string(TREEPLACE_INSTANCES_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing " << path;
  return readInstance(in);
}

/// Paper figures + shipped instance files + random trees: the fleet every
/// batched-vs-serial comparison below runs over.
std::vector<ProblemInstance> fleet() {
  std::vector<ProblemInstance> instances;
  instances.push_back(fig1AccessPolicies('a'));
  instances.push_back(fig1AccessPolicies('b'));
  instances.push_back(fig2UpwardsVsClosest(3));
  instances.push_back(fig3MultipleVsUpwardsHomogeneous(3));
  instances.push_back(fig4MultipleVsUpwardsHeterogeneous(3, 2));
  instances.push_back(loadFile("vod_small.tp"));
  instances.push_back(loadFile("isp_hetero.tp"));
  for (std::uint64_t seed = 1; seed <= 9; ++seed)
    instances.push_back(testutil::smallRandomInstance(
        seed * 733, 0.55, /*hetero=*/seed % 3 == 0, /*unit=*/seed % 3 != 0));
  return instances;
}

struct Evaluation {
  bool mbSuccess = false;
  double mbCost = 0.0;
  double lowerBound = 0.0;
  bool lbExact = false;
  double exactCost = 0.0;
  bool exactProven = false;
  bool exactFeasible = false;
  lp::WarmStartStats warm;
};

Evaluation evaluate(const ProblemInstance& instance, BatchArenas* arenas) {
  Evaluation e;
  double bestCost = lp::kInfinity;
  if (const auto mb = runMixedBest(instance)) {
    e.mbSuccess = true;
    e.mbCost = mb->cost;
    bestCost = mb->cost;
  }
  LowerBoundOptions lbo;
  lbo.maxNodes = 200;
  lbo.knownUpperBound = bestCost;
  if (arenas) lbo.boundsArena = &arenas->bounds;
  const LowerBoundResult lb = refinedLowerBound(instance, lbo);
  e.lowerBound = lb.lpFeasible ? lb.bound : -1.0;
  e.lbExact = lb.exact;

  ExactIlpOptions eo;
  if (arenas) eo.boundsArena = &arenas->bounds;
  const ExactIlpResult exact = solveExactViaIlp(instance, Policy::Multiple, eo);
  e.exactFeasible = exact.feasible();
  e.exactProven = exact.proven;
  e.exactCost = exact.feasible() ? exact.cost : -1.0;
  e.warm = exact.warm;
  return e;
}

/// Batched execution over the fleet must match per-instance serial results
/// exactly — the arenas change allocation, never answers.
TEST(BatchDriver, MatchesSerialResultsOnTheFleet) {
  const std::vector<ProblemInstance> instances = fleet();

  std::vector<Evaluation> serial(instances.size());
  for (std::size_t i = 0; i < instances.size(); ++i)
    serial[i] = evaluate(instances[i], nullptr);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<Evaluation> batched(instances.size());
    BatchOptions options;
    options.threads = threads;
    const BatchRunStats stats = runBatch(
        instances.size(),
        [&](std::size_t i, BatchArenas& arenas) {
          batched[i] = evaluate(instances[i], &arenas);
        },
        options);
    EXPECT_EQ(stats.jobs, instances.size());
    EXPECT_GE(stats.arenaSets, 1u);

    for (std::size_t i = 0; i < instances.size(); ++i) {
      SCOPED_TRACE("instance " + std::to_string(i) + " threads " +
                   std::to_string(threads));
      EXPECT_EQ(batched[i].mbSuccess, serial[i].mbSuccess);
      EXPECT_DOUBLE_EQ(batched[i].mbCost, serial[i].mbCost);
      EXPECT_DOUBLE_EQ(batched[i].lowerBound, serial[i].lowerBound);
      EXPECT_EQ(batched[i].lbExact, serial[i].lbExact);
      EXPECT_EQ(batched[i].exactFeasible, serial[i].exactFeasible);
      EXPECT_EQ(batched[i].exactProven, serial[i].exactProven);
      EXPECT_DOUBLE_EQ(batched[i].exactCost, serial[i].exactCost);
    }
  }
}

/// Arena recycling must leave no cross-instance state: evaluating the same
/// instance at the start and at the end of a worker's share of the fleet
/// returns byte-identical telemetry (WarmStartStats is per-run).
TEST(BatchDriver, ArenaRecyclingLeavesNoCrossInstanceState) {
  const std::vector<ProblemInstance> instances = fleet();

  BatchArenas arenas;
  const Evaluation before = evaluate(instances[0], &arenas);
  for (std::size_t i = 1; i < instances.size(); ++i)
    (void)evaluate(instances[i], &arenas);
  const Evaluation after = evaluate(instances[0], &arenas);

  // WarmStartStats reset between runs: the second pass reports exactly the
  // first pass's counters, not an accumulation.
  EXPECT_EQ(after.warm.coldSolves, before.warm.coldSolves);
  EXPECT_EQ(after.warm.warmSolves, before.warm.warmSolves);
  EXPECT_EQ(after.warm.dualIterations, before.warm.dualIterations);
  EXPECT_EQ(after.warm.boundFlips, before.warm.boundFlips);
  EXPECT_DOUBLE_EQ(after.exactCost, before.exactCost);
  EXPECT_DOUBLE_EQ(after.lowerBound, before.lowerBound);
}

/// The sweep runner rides the batch driver: a pooled run must reproduce the
/// sequential run outcome for outcome.
TEST(BatchDriver, RunExperimentPooledMatchesSequential) {
  ExperimentPlan plan;
  plan.lambdas = {0.3, 0.7};
  plan.treesPerLambda = 6;
  plan.lbMaxNodes = 40;

  const ExperimentResult sequential = runExperiment(plan, nullptr);
  ThreadPool pool(4);
  const ExperimentResult pooled = runExperiment(plan, &pool);

  ASSERT_EQ(pooled.outcomes.size(), sequential.outcomes.size());
  for (std::size_t i = 0; i < pooled.outcomes.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    EXPECT_EQ(pooled.outcomes[i].lpFeasible, sequential.outcomes[i].lpFeasible);
    EXPECT_DOUBLE_EQ(pooled.outcomes[i].lowerBound,
                     sequential.outcomes[i].lowerBound);
    EXPECT_EQ(pooled.outcomes[i].lbExact, sequential.outcomes[i].lbExact);
    for (std::size_t k = 0; k < kSeriesCount; ++k) {
      EXPECT_EQ(pooled.outcomes[i].series[k].success,
                sequential.outcomes[i].series[k].success);
      EXPECT_DOUBLE_EQ(pooled.outcomes[i].series[k].cost,
                       sequential.outcomes[i].series[k].cost);
    }
  }
}

/// Scheduling edge cases: zero jobs, single job, more threads than jobs, and
/// an external pool shared across batches.
TEST(BatchDriver, SchedulingEdgeCases) {
  const BatchRunStats empty = runBatch(0, [](std::size_t, BatchArenas&) {});
  EXPECT_EQ(empty.jobs, 0u);

  std::atomic<int> hits{0};
  BatchOptions one;
  one.threads = 8;
  const BatchRunStats single =
      runBatch(1, [&](std::size_t, BatchArenas&) { hits.fetch_add(1); }, one);
  EXPECT_EQ(single.jobs, 1u);
  EXPECT_EQ(hits.load(), 1);

  ThreadPool pool(2);
  BatchOptions shared;
  shared.pool = &pool;
  for (int round = 0; round < 3; ++round) {
    hits.store(0);
    runBatch(16, [&](std::size_t, BatchArenas&) { hits.fetch_add(1); }, shared);
    EXPECT_EQ(hits.load(), 16);
  }
}

}  // namespace
}  // namespace treeplace
