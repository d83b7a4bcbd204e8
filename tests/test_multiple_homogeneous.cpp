#include "exact/multiple_homogeneous.hpp"

#include <gtest/gtest.h>

#include "support/budget.hpp"
#include "support/prng.hpp"
#include "support/require.hpp"

#include "core/validate.hpp"
#include "exact/exact_ilp.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"
#include "tree/paper_instances.hpp"

namespace treeplace {
namespace {

TEST(MultipleHomogeneous, TrivialSingleClient) {
  const ProblemInstance inst = testutil::chainInstance(5, 5, {3});
  const auto placement = solveMultipleHomogeneous(inst);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->replicaCount(), 1u);
  EXPECT_TRUE(testutil::placementValid(inst, *placement, Policy::Multiple));
}

TEST(MultipleHomogeneous, SplitAcrossTwoServers) {
  // Figure 1(c): client with 2 requests, W = 1: both nodes needed.
  const ProblemInstance inst = fig1AccessPolicies('c');
  const auto placement = solveMultipleHomogeneous(inst);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->replicaCount(), 2u);
  EXPECT_TRUE(testutil::placementValid(inst, *placement, Policy::Multiple));
}

TEST(MultipleHomogeneous, DetectsInfeasible) {
  const ProblemInstance inst = testutil::chainInstance(3, 3, {10});  // 10 > 6
  EXPECT_FALSE(solveMultipleHomogeneous(inst).has_value());
}

TEST(MultipleHomogeneous, ZeroRequestsNeedNoReplica) {
  const ProblemInstance inst = testutil::chainInstance(3, 3, {0});
  const auto placement = solveMultipleHomogeneous(inst);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->replicaCount(), 0u);
}

TEST(MultipleHomogeneous, Figure3CostIsNPlusOne) {
  for (const int n : {2, 3, 5}) {
    const ProblemInstance inst = fig3MultipleVsUpwardsHomogeneous(n);
    const auto placement = solveMultipleHomogeneous(inst);
    ASSERT_TRUE(placement.has_value()) << "n=" << n;
    EXPECT_EQ(placement->replicaCount(), static_cast<std::size_t>(n + 1)) << "n=" << n;
    EXPECT_TRUE(testutil::placementValid(inst, *placement, Policy::Multiple));
  }
}

TEST(MultipleHomogeneous, Figure5NeedsNPlusOne) {
  const ProblemInstance inst = fig5LowerBoundGap(/*n=*/4, /*capacity=*/8);
  const auto placement = solveMultipleHomogeneous(inst);
  ASSERT_TRUE(placement.has_value());
  EXPECT_EQ(placement->replicaCount(), 5u);  // far above the counting bound 2
}

TEST(MultipleHomogeneous, WalkthroughTraceIsConsistent) {
  const ProblemInstance inst = walkthroughExample();
  MultipleHomogeneousTrace trace;
  const auto placement = solveMultipleHomogeneous(inst, &trace);
  ASSERT_TRUE(placement.has_value());
  EXPECT_TRUE(testutil::placementValid(inst, *placement, Policy::Multiple));
  // 34 requests, W = 10: optimal uses ceil(34/10) = 4 replicas at best; the
  // shape forces pass 2 to run (pass 1 alone cannot finish).
  EXPECT_GE(placement->replicaCount(), 4u);
  EXPECT_FALSE(trace.pass1Replicas.empty());
  EXPECT_FALSE(trace.pass2Replicas.empty());
  // Saturated pass-1 servers appear exactly once and carry flow >= 0.
  for (const VertexId v : trace.pass1Replicas)
    EXPECT_TRUE(inst.tree.isInternal(v));
}

TEST(MultipleHomogeneous, RequiresHomogeneous) {
  const ProblemInstance inst =
      testutil::chainInstance(10, 6, {4}, /*unitCosts=*/true);
  EXPECT_THROW(solveMultipleHomogeneous(inst), PreconditionError);
}

/// The core optimality cross-check: the 3-pass algorithm matches the exact
/// ILP replica count on random homogeneous instances (and both agree on
/// feasibility).
class MultipleVsIlp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MultipleVsIlp, CountsMatch) {
  for (const double lambda : {0.3, 0.7, 1.0}) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        GetParam() * 101 + static_cast<std::uint64_t>(lambda * 10), lambda,
        /*hetero=*/false, /*unit=*/true);
    const auto algo = solveMultipleHomogeneous(inst);
    const ExactIlpResult ilp = solveExactViaIlp(inst, Policy::Multiple);
    ASSERT_TRUE(ilp.proven);
    ASSERT_EQ(algo.has_value(), ilp.feasible())
        << "feasibility disagreement, lambda=" << lambda;
    if (!algo) continue;
    EXPECT_TRUE(testutil::placementValid(inst, *algo, Policy::Multiple));
    EXPECT_DOUBLE_EQ(algo->storageCost(inst), ilp.cost)
        << "suboptimal replica count, lambda=" << lambda;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultipleVsIlp,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u,
                                           11u, 12u));

TEST(MultipleHomogeneous, CountHelperAgrees) {
  const ProblemInstance inst = fig3MultipleVsUpwardsHomogeneous(3);
  const auto count = optimalMultipleReplicaCount(inst);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 4u);
}

// The guard charges one step per pass-2 rescan: a budget of k steps stops
// the solve at its (k+1)-th rescan, and a budget that covers every rescan
// leaves the placement untouched.
TEST(MultipleHomogeneous, GuardStopsPassTwoWithinItsSteps) {
  GeneratorConfig config;
  config.minSize = config.maxSize = 4000;
  config.unitCosts = true;
  config.lambda = 0.3;
  Prng rng(11);
  const ProblemInstance instance = generateInstance(config, rng);
  const std::optional<Placement> unguarded = solveMultipleHomogeneous(instance);
  ASSERT_TRUE(unguarded.has_value());

  SolveBudget counting;
  counting.maxSteps = 1L << 40;
  BudgetGuard counter(counting);
  const std::optional<Placement> counted = solveMultipleHomogeneous(instance, nullptr, &counter);
  const long rescans = counter.stepsUsed();
  ASSERT_GT(rescans, 10) << "the instance must need pass-2 rescans to be a test";
  ASSERT_TRUE(counted.has_value());
  EXPECT_EQ(counted->replicaList(), unguarded->replicaList());

  SolveBudget half;
  half.maxSteps = rescans / 2;
  BudgetGuard halfGuard(half);
  try {
    solveMultipleHomogeneous(instance, nullptr, &halfGuard);
    ADD_FAILURE() << "a budget of " << half.maxSteps << " of " << rescans
                  << " rescans did not stop the solve";
  } catch (const SolveInterrupted& e) {
    EXPECT_EQ(e.verdict(), BudgetVerdict::StepLimit);
  }
  EXPECT_EQ(halfGuard.stepsUsed(), half.maxSteps + 1);

  SolveBudget exact;
  exact.maxSteps = rescans;
  BudgetGuard exactGuard(exact);
  const std::optional<Placement> fits = solveMultipleHomogeneous(instance, nullptr, &exactGuard);
  ASSERT_TRUE(fits.has_value());
  EXPECT_EQ(fits->replicaList(), unguarded->replicaList());
}

}  // namespace
}  // namespace treeplace
