#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "test_util.hpp"
#include "tree/builder.hpp"
#include "tree/paper_instances.hpp"

namespace treeplace {
namespace {

TEST(Bounds, CountingBoundBasics) {
  EXPECT_EQ(countingLowerBound(testutil::chainInstance(5, 5, {4, 2})), 2);  // ceil(6/5)
  EXPECT_EQ(countingLowerBound(testutil::chainInstance(5, 5, {5})), 1);
  EXPECT_EQ(countingLowerBound(testutil::chainInstance(5, 5, {0})), 0);
}

TEST(Bounds, Figure5GapInstance) {
  // Section 3.4: the bound is 2, every policy needs n+1 replicas.
  const ProblemInstance inst = fig5LowerBoundGap(/*n=*/4, /*capacity=*/8);
  EXPECT_EQ(countingLowerBound(inst), 2);
}

TEST(Bounds, FractionalCoverUnitRatio) {
  // s_j = W_j means the best fractional cover costs exactly the demand.
  const ProblemInstance inst =
      testutil::chainInstance(10, 6, {4, 2}, /*unitCosts=*/false);
  EXPECT_DOUBLE_EQ(fractionalCoverLowerBound(inst), 6.0);
}

TEST(Bounds, FractionalCoverPrefersCheapRatio) {
  TreeBuilder b;
  const VertexId root = b.addRoot(10);
  b.setStorageCost(root, 20.0);          // ratio 2.0
  const VertexId mid = b.addInternal(root, 10);
  b.setStorageCost(mid, 5.0);            // ratio 0.5
  b.addClient(mid, 15);
  const ProblemInstance inst = b.build();
  // 10 requests at ratio 0.5 (cost 5) + 5 requests at ratio 2.0 (cost 10).
  EXPECT_DOUBLE_EQ(fractionalCoverLowerBound(inst), 15.0);
}

TEST(Bounds, FractionalCoverZeroDemand) {
  const ProblemInstance inst = testutil::chainInstance(5, 5, {0});
  EXPECT_DOUBLE_EQ(fractionalCoverLowerBound(inst), 0.0);
}

TEST(Bounds, FractionalCoverInfeasibleStillBounded) {
  // Demand exceeds total capacity; the bound is the full capacity cost.
  const ProblemInstance inst =
      testutil::chainInstance(3, 3, {10}, /*unitCosts=*/false);
  EXPECT_DOUBLE_EQ(fractionalCoverLowerBound(inst), 6.0);
}

TEST(FrontierRelaxation, ExactOnHomogeneousMultiple) {
  // On homogeneous instances the relaxation's place step coincides with the
  // Multiple DP, so the total floor equals the true optimal replica count.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 271 + 5, 0.3 + 0.05 * static_cast<double>(seed % 8),
        /*hetero=*/false, /*unit=*/true, 6, 30);
    const FrontierSubtreeRelaxation relaxation(inst);
    const auto optimal = optimalMultipleReplicaCount(inst);
    ASSERT_EQ(relaxation.feasible(), optimal.has_value()) << "seed " << seed;
    if (!optimal) continue;
    EXPECT_EQ(static_cast<std::size_t>(relaxation.minTotalReplicas()), *optimal)
        << "seed " << seed;
    // Unit costs: the decomposition floor cannot exceed the replica count.
    EXPECT_LE(relaxation.decompositionBound(),
              static_cast<double>(*optimal) + 1e-9)
        << "seed " << seed;
  }
}

TEST(FrontierRelaxation, SharedArenaMatchesFreshAcrossInstances) {
  // One arena reused across many related instances (the bench pattern) must
  // reproduce the per-instance results exactly.
  FrontierArena arena;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 409 + 3, 0.55, /*hetero=*/seed % 2 == 0, /*unit=*/seed % 2 == 1,
        6, 24);
    const FrontierSubtreeRelaxation shared(inst, arena);
    const FrontierSubtreeRelaxation fresh(inst);
    ASSERT_EQ(shared.feasible(), fresh.feasible()) << "seed " << seed;
    EXPECT_EQ(shared.minTotalReplicas(), fresh.minTotalReplicas()) << "seed " << seed;
    EXPECT_DOUBLE_EQ(shared.decompositionBound(), fresh.decompositionBound())
        << "seed " << seed;
    for (const VertexId v : inst.tree.internals())
      ASSERT_EQ(shared.minReplicasIn(v), fresh.minReplicasIn(v))
          << "seed " << seed << " vertex " << v;
  }
}

TEST(FrontierRelaxation, LentSlabComesBackWithItsCapacity) {
  // The relaxation folds in the caller's slab and hands it back: a batch
  // worker that bounds instance after instance reallocates nothing once the
  // slab has grown to its largest instance.
  const ProblemInstance big = testutil::smallRandomInstance(77, 0.5, false, true, 40, 60);
  const ProblemInstance small = testutil::smallRandomInstance(78, 0.5, false, true, 6, 12);
  FrontierArena arena;
  const FrontierSubtreeRelaxation first(big, arena);
  const std::size_t capacity = arena.capacity();
  ASSERT_GE(capacity, 4 * big.tree.vertexCount());
  for (int round = 0; round < 3; ++round) {
    const FrontierSubtreeRelaxation again(round % 2 == 0 ? small : big, arena);
    EXPECT_EQ(arena.capacity(), capacity) << "round " << round;
  }
  const FrontierSubtreeRelaxation last(big, arena);
  EXPECT_EQ(last.decompositionBound(), first.decompositionBound());
}

TEST(Bounds, IntegralStorageCosts) {
  EXPECT_TRUE(integralStorageCosts(testutil::chainInstance(5, 5, {4, 2})));
  ProblemInstance inst = testutil::chainInstance(5, 5, {4, 2});
  inst.storageCost[static_cast<std::size_t>(inst.tree.internals()[0])] = 1.5;
  EXPECT_FALSE(integralStorageCosts(inst));
}

TEST(FrontierRelaxation, DecompositionBoundBelowHeterogeneousOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 577 + 1, 0.5, /*hetero=*/true, /*unit=*/false, 6, 12);
    const FrontierSubtreeRelaxation relaxation(inst);
    const ExactIlpResult exact = solveExactViaIlp(inst, Policy::Multiple);
    ASSERT_TRUE(exact.proven) << "seed " << seed;
    if (!exact.feasible()) continue;
    ASSERT_TRUE(relaxation.feasible()) << "seed " << seed;
    EXPECT_LE(relaxation.decompositionBound(), exact.cost + 1e-6) << "seed " << seed;
  }
}

TEST(FrontierRelaxation, SubtreeFloorSeesDeepStructure) {
  // A tight mid subtree forces a replica below the root even though the
  // structure-free cover bound only sees aggregate capacity: client demand 6
  // can only flow 4 up past mid, so mid's subtree needs a replica.
  TreeBuilder b;
  const VertexId root = b.addRoot(4);
  const VertexId mid = b.addInternal(root, 10);
  b.addClient(mid, 6);
  b.useUnitCosts();
  const ProblemInstance inst = b.build();
  const FrontierSubtreeRelaxation relaxation(inst);
  ASSERT_TRUE(relaxation.feasible());
  EXPECT_EQ(relaxation.minReplicasIn(mid), 1);
  EXPECT_EQ(relaxation.minTotalReplicas(), 1);
  EXPECT_DOUBLE_EQ(relaxation.decompositionBound(), 1.0);
  (void)root;
}

TEST(FrontierRelaxation, DetectsStructuralInfeasibility) {
  // Demand exceeds every capacity on the root path: no policy can serve it.
  const ProblemInstance inst = testutil::chainInstance(3, 3, {10});
  const FrontierSubtreeRelaxation relaxation(inst);
  EXPECT_FALSE(relaxation.feasible());
}

}  // namespace
}  // namespace treeplace
