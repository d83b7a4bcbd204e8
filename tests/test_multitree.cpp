#include "exact/multitree_closest.hpp"

#include <gtest/gtest.h>

#include <bit>

#include "core/validate.hpp"
#include "support/require.hpp"
#include "tree/builder.hpp"
#include "tree/generator.hpp"
#include "tree/multitree.hpp"

namespace treeplace {
namespace {

/// Result of the exponential test oracle.
struct MultitreeBruteForceResult {
  bool solved = false;    ///< false when the internal count exceeds the cap
  bool feasible = false;  ///< meaningful only when solved
  std::vector<VertexId> replicas;  ///< sorted global ids when feasible
};

/// Exponential oracle: enumerate every subset of global internal ids
/// (refusing instances with more than `maxInternals` of them), check
/// per-member-tree Closest feasibility by direct simulation — every client
/// is served by the nearest root-path replica of its own tree, per-server
/// per-tree load at most W_t — and return the minimum-size,
/// lexicographically smallest replica set.
MultitreeBruteForceResult solveMultitreeClosestBruteForce(
    const MultitreeInstance& instance, std::size_t maxInternals = 22) {
  MultitreeBruteForceResult result;
  const std::vector<VertexId> internals = instance.globalInternals();
  if (internals.size() > maxInternals || internals.size() >= 63) return result;
  result.solved = true;

  const std::size_t treeCount = instance.treeCount();
  std::vector<Requests> capacity(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t)
    capacity[t] = instance.trees[t].homogeneousCapacity();

  std::vector<char> inSet(static_cast<std::size_t>(instance.globalVertexCount), 0);
  std::vector<VertexId> candidate;
  std::vector<Requests> load;
  std::vector<VertexId> bestSet;
  bool haveBest = false;

  for (std::uint64_t mask = 0; mask < (1ull << internals.size()); ++mask) {
    const auto count = static_cast<std::size_t>(std::popcount(mask));
    if (haveBest && count > bestSet.size()) continue;
    candidate.clear();
    for (std::size_t i = 0; i < internals.size(); ++i)
      if ((mask >> i) & 1) candidate.push_back(internals[i]);
    if (haveBest && count == bestSet.size() && !(candidate < bestSet)) continue;

    for (const VertexId r : candidate) inSet[static_cast<std::size_t>(r)] = 1;
    bool feasible = true;
    for (std::size_t t = 0; t < treeCount && feasible; ++t) {
      const ProblemInstance& member = instance.trees[t];
      load.assign(member.tree.vertexCount(), 0);
      for (const VertexId c : member.tree.clients()) {
        VertexId server = kNoVertex;
        for (VertexId u = member.tree.parent(c); u != kNoVertex;
             u = member.tree.parent(u)) {
          if (inSet[static_cast<std::size_t>(instance.globalId(t, u))]) {
            server = u;
            break;
          }
        }
        if (server == kNoVertex) {
          feasible = false;
          break;
        }
        load[static_cast<std::size_t>(server)] +=
            member.requests[static_cast<std::size_t>(c)];
      }
      if (feasible)
        for (const VertexId j : member.tree.internals())
          if (load[static_cast<std::size_t>(j)] > capacity[t]) {
            feasible = false;
            break;
          }
    }
    for (const VertexId r : candidate) inSet[static_cast<std::size_t>(r)] = 0;
    if (feasible) {
      bestSet = candidate;
      haveBest = true;
    }
  }
  result.feasible = haveBest;
  result.replicas = std::move(bestSet);
  return result;
}

/// Two member trees sharing gateway 0 (global ids in brackets):
///
///   tree 0:  root[1] -- gw[0] -- clients [2](r=1), [3](r=1)     W = 2
///   tree 1:  root[4] -- gw[0] -- client  [5](r=1)               W = 1
///
/// When `bareGateway` is set, tree 1's client hangs off the root instead and
/// the gateway is a bare internal there (childless, still a replica host).
MultitreeInstance handInstance(bool bareGateway) {
  MultitreeInstance mt;
  mt.sharedCount = 1;

  {
    TreeBuilder b;
    const VertexId root = b.addRoot(2);
    const VertexId gw = b.addInternal(root, 2);
    b.addClient(gw, 1);
    b.addClient(gw, 1);
    b.useUnitCosts();
    mt.trees.push_back(b.build());
    mt.toGlobal.push_back({1, 0, 2, 3});
  }
  {
    TreeBuilder b;
    b.allowBareInternals();
    const VertexId root = b.addRoot(1);
    const VertexId gw = b.addInternal(root, 1);
    b.addClient(bareGateway ? root : gw, 1);
    b.useUnitCosts();
    mt.trees.push_back(b.build());
    mt.toGlobal.push_back({4, 0, 5});
  }

  mt.globalVertexCount = 6;
  for (std::size_t t = 0; t < mt.trees.size(); ++t) {
    std::vector<VertexId> local(static_cast<std::size_t>(mt.globalVertexCount),
                                kNoVertex);
    for (std::size_t v = 0; v < mt.toGlobal[t].size(); ++v)
      local[static_cast<std::size_t>(mt.toGlobal[t][v])] = static_cast<VertexId>(v);
    mt.toLocal.push_back(std::move(local));
  }
  mt.validate();
  return mt;
}

TEST(Multitree, SharedGatewayCountedOnce) {
  const MultitreeInstance mt = handInstance(false);
  const MultitreeSolveResult result = solveMultitreeClosest(mt);
  ASSERT_TRUE(result.feasible);
  ASSERT_TRUE(result.placement.has_value());
  // Gateway 0 serves both overlays; one global replica suffices.
  EXPECT_EQ(result.placement->replicas, (std::vector<VertexId>{0}));
  EXPECT_TRUE(isValidMultitreePlacement(mt, *result.placement, Policy::Closest));
  EXPECT_FALSE(result.stats.exhausted);
}

TEST(Multitree, BareGatewayCannotServeForeignClients) {
  const MultitreeInstance mt = handInstance(true);
  const MultitreeSolveResult result = solveMultitreeClosest(mt);
  ASSERT_TRUE(result.feasible);
  ASSERT_TRUE(result.placement.has_value());
  // Tree 1's client sits under the root only: the bare gateway is off its
  // root path, so tree 1 needs its own replica at [4] next to gateway 0.
  EXPECT_EQ(result.placement->replicas, (std::vector<VertexId>{0, 4}));
  EXPECT_TRUE(isValidMultitreePlacement(mt, *result.placement, Policy::Closest));
}

TEST(Multitree, BruteForceMatchesHandInstances) {
  for (const bool bare : {false, true}) {
    const MultitreeInstance mt = handInstance(bare);
    const MultitreeBruteForceResult oracle = solveMultitreeClosestBruteForce(mt);
    ASSERT_TRUE(oracle.solved);
    ASSERT_TRUE(oracle.feasible);
    const MultitreeSolveResult result = solveMultitreeClosest(mt);
    ASSERT_TRUE(result.feasible);
    EXPECT_EQ(result.placement->replicas, oracle.replicas);
  }
}

TEST(Multitree, ValidatorFlagsOverlayDrift) {
  const MultitreeInstance mt = handInstance(false);
  const MultitreeSolveResult result = solveMultitreeClosest(mt);
  ASSERT_TRUE(result.feasible);
  MultitreePlacement tampered = *result.placement;

  // Drop the gateway replica from tree 1 only: the global set still lists
  // it, so the overlay is inconsistent (and tree 1's client goes unserved).
  tampered.perTree[1].clearClient(mt.localId(1, 5));
  tampered.perTree[1].removeReplica(mt.localId(1, 0));
  const ValidationResult check =
      validateMultitreePlacement(mt, tampered, Policy::Closest);
  EXPECT_FALSE(check.ok());
  bool sawOverlay = false;
  for (const Violation& v : check.violations)
    if (v.kind == ViolationKind::OverlayInconsistent && v.where == 0) sawOverlay = true;
  EXPECT_TRUE(sawOverlay) << check.describe();
}

TEST(Multitree, ValidatorRemapsMemberViolationsToGlobalIds) {
  const MultitreeInstance mt = handInstance(false);
  const MultitreeSolveResult result = solveMultitreeClosest(mt);
  ASSERT_TRUE(result.feasible);
  MultitreePlacement tampered = *result.placement;
  // Unserve tree 0's client [2]; the violation must surface with its global id.
  tampered.perTree[0].clearClient(mt.localId(0, 2));
  const ValidationResult check =
      validateMultitreePlacement(mt, tampered, Policy::Closest);
  ASSERT_FALSE(check.ok());
  bool sawGlobal = false;
  for (const Violation& v : check.violations)
    if (v.kind == ViolationKind::UnservedRequests && v.where == 2) sawGlobal = true;
  EXPECT_TRUE(sawGlobal) << check.describe();
}

TEST(Multitree, InfeasibleWhenDemandExceedsEveryPath) {
  MultitreeInstance mt = handInstance(false);
  // Tree 0's two unit clients against W = 2 is tight; triple one client's
  // demand and no single Closest server (gateway or root) can absorb it.
  mt.trees[0].requests[static_cast<std::size_t>(mt.localId(0, 2))] = 3;
  const MultitreeSolveResult result = solveMultitreeClosest(mt);
  EXPECT_FALSE(result.feasible);
  const MultitreeBruteForceResult oracle = solveMultitreeClosestBruteForce(mt);
  ASSERT_TRUE(oracle.solved);
  EXPECT_FALSE(oracle.feasible);
}

TEST(Multitree, GeneratorProducesValidOverlays) {
  int bareSeen = 0;
  for (std::uint64_t index = 0; index < 20; ++index) {
    MultitreeConfig config;
    config.trees = 2 + static_cast<int>(index % 3);
    config.sharedInternals = 3;
    config.base.minSize = 8;
    config.base.maxSize = 20;
    const MultitreeInstance mt = generateMultitreeInstance(config, 77, index);
    mt.validate();  // structural invariants
    EXPECT_EQ(mt.sharedCount, 3);
    for (VertexId gw = 0; gw < mt.sharedCount; ++gw) {
      EXPECT_FALSE(mt.treesOf(gw).empty());
      for (const std::size_t t : mt.treesOf(gw)) {
        const VertexId local = mt.localId(t, gw);
        EXPECT_TRUE(mt.trees[t].tree.isInternal(local));
        if (mt.trees[t].tree.isLeaf(local)) ++bareSeen;
      }
    }
  }
  // Bare gateways are a deliberate feature of the overlay generator; the
  // family must exercise them or the isClient/isLeaf distinction goes
  // untested.
  EXPECT_GT(bareSeen, 0);
}

TEST(Multitree, LexicoMinimumMatchesBruteForceOnRandomFamily) {
  int compared = 0;
  for (std::uint64_t index = 0; index < 130; ++index) {
    MultitreeConfig config;
    config.trees = 2 + static_cast<int>(index % 2);
    config.sharedInternals = 2 + static_cast<int>(index % 2);
    config.base.minSize = 5;
    config.base.maxSize = 8;
    config.base.lambda = 0.35 + 0.1 * static_cast<double>(index % 4);
    const MultitreeInstance mt = generateMultitreeInstance(config, 424242, index);

    const MultitreeBruteForceResult oracle = solveMultitreeClosestBruteForce(mt, 16);
    if (!oracle.solved) continue;  // too many internals for the oracle
    const MultitreeSolveResult result = solveMultitreeClosest(mt);
    EXPECT_FALSE(result.stats.exhausted) << "instance " << index;
    ASSERT_EQ(result.feasible, oracle.feasible) << "instance " << index;
    ++compared;
    if (!oracle.feasible) continue;
    ASSERT_TRUE(result.placement.has_value());
    EXPECT_EQ(result.placement->replicas, oracle.replicas) << "instance " << index;
    const ValidationResult check =
        validateMultitreePlacement(mt, *result.placement, Policy::Closest);
    EXPECT_TRUE(check.ok()) << "instance " << index << "\n" << check.describe();
  }
  // The acceptance bar: at least 100 instances actually cross-checked.
  EXPECT_GE(compared, 100);
}

TEST(Multitree, SolverScalesBeyondTheOracle) {
  MultitreeConfig config;
  config.trees = 3;
  config.sharedInternals = 8;
  config.base.minSize = 300;
  config.base.maxSize = 400;
  // Unit requests at light load: the regime where large Closest instances
  // are reliably feasible (bursty demand makes a single overloaded edge
  // internal infeasible with high probability at this size).
  config.base.minRequests = 1;
  config.base.maxRequests = 1;
  config.base.lambda = 0.2;
  const MultitreeInstance mt = generateMultitreeInstance(config, 9001, 0);
  const MultitreeSolveResult result = solveMultitreeClosest(mt);
  ASSERT_TRUE(result.feasible);
  EXPECT_FALSE(result.stats.exhausted);
  const ValidationResult check =
      validateMultitreePlacement(mt, *result.placement, Policy::Closest);
  EXPECT_TRUE(check.ok()) << check.describe();
  // The dirty-path machinery must actually be engaged at this size.
  EXPECT_GT(result.stats.dirtyRecomputes, 0u);
  EXPECT_GT(result.stats.dpResolves, mt.treeCount());
}

TEST(Multitree, BareInternalsRequireOptIn) {
  // Without the opt-in a childless internal still throws, exactly as before.
  EXPECT_THROW(Tree::fromParents({kNoVertex, 0, 0},
                                 {VertexKind::Internal, VertexKind::Internal,
                                  VertexKind::Client}),
               PreconditionError);
  const Tree t = Tree::fromParents({kNoVertex, 0, 0},
                                   {VertexKind::Internal, VertexKind::Internal,
                                    VertexKind::Client},
                                   {.allowBareInternals = true});
  EXPECT_TRUE(t.isLeaf(1));
  EXPECT_TRUE(t.isInternal(1));   // bare internal: leaf, NOT a client
  EXPECT_FALSE(t.isClient(1));
}

}  // namespace
}  // namespace treeplace
