#include "online/incremental.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "experiments/mutation_driver.hpp"
#include "lp/branch_bound.hpp"
#include "online/delta.hpp"
#include "online/warm_ilp.hpp"
#include "support/fault_injection.hpp"
#include "support/prng.hpp"
#include "support/require.hpp"
#include "test_util.hpp"
#include "tree/builder.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance smallHomogeneous(std::uint64_t seed, double qosFraction = 0.0) {
  GeneratorConfig config;
  config.minSize = 8;
  config.maxSize = 20;
  config.clientFraction = 0.55;
  config.maxRequests = 8;
  config.lambda = 0.55;
  config.unitCosts = true;
  config.qosFraction = qosFraction;
  Prng rng(seed);
  return generateInstance(config, rng);
}

std::optional<Placement> scratch(const ProblemInstance& instance,
                                 OnlinePolicy policy) {
  return solveOneShot(instance, policy);
}

// ---------------------------------------------------------------------------
// Randomized equivalence: after EVERY step of 100+ random mutation sequences
// per policy, the incremental re-solve must produce the same feasibility
// verdict, cost and (bit-identical) placement as the from-scratch exact
// solver it mirrors. The mutation driver performs the comparison per step.
// ---------------------------------------------------------------------------

class IncrementalEquivalence : public ::testing::TestWithParam<OnlinePolicy> {};

TEST_P(IncrementalEquivalence, MatchesScratchAfterEveryStep) {
  const OnlinePolicy policy = GetParam();
  const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
  int verifiedSteps = 0;
  for (std::uint64_t seed = 1; seed <= 110; ++seed) {
    ProblemInstance instance = smallHomogeneous(seed, qosFraction);
    MutationWorkloadConfig config;
    config.policy = policy;
    config.steps = 8;
    config.seed = seed * 7919;
    config.structural = true;
    const MutationRunResult run = runMutationWorkload(instance, config);
    ASSERT_EQ(run.steps.size(), 8u) << "seed=" << seed;
    for (std::size_t k = 0; k < run.steps.size(); ++k)
      EXPECT_TRUE(run.steps[k].match)
          << toString(policy) << " seed=" << seed << " step=" << k << " kind="
          << static_cast<int>(run.steps[k].kind);
    EXPECT_TRUE(run.allMatch) << "seed=" << seed;
    verifiedSteps += static_cast<int>(run.steps.size());
  }
  EXPECT_GE(verifiedSteps, 800);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, IncrementalEquivalence,
                         ::testing::Values(OnlinePolicy::Closest,
                                           OnlinePolicy::Multiple,
                                           OnlinePolicy::ClosestQos),
                         [](const auto& info) {
                           return std::string(toString(info.param));
                         });

// solveOneShot ticks its guard once per bag, infeasible instances included
// (an empty frontier is folded on to the root): a counting guard reads the
// vertex count, a step budget of exactly that many completes with the same
// placement, and one step fewer trips. solveResilient's truncation sweep
// relies on this count.
TEST(IncrementalSolver, OneShotChargesOneStepPerBag) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    int feasible = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      GeneratorConfig config;
      config.minSize = 8;
      config.maxSize = 40;
      config.maxRequests = 8;
      config.lambda = 0.15 + 0.1 * static_cast<double>(seed % 5);  // both verdicts
      config.unitCosts = true;
      config.qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
      Prng rng(seed * 131 + 7);
      const ProblemInstance instance = generateInstance(config, rng);
      const long bags = static_cast<long>(instance.tree.vertexCount());
      const std::string ctx = std::string(toString(policy)) + " seed=" + std::to_string(seed);
      SolveBudget budget;
      budget.maxSteps = 1L << 40;
      BudgetGuard counter(budget);
      const std::optional<Placement> counted = solveOneShot(instance, policy, &counter);
      EXPECT_EQ(counter.stepsUsed(), bags) << ctx;
      if (counted) ++feasible;

      budget.maxSteps = bags;
      BudgetGuard exact(budget);
      std::optional<Placement> again;
      ASSERT_NO_THROW(again = solveOneShot(instance, policy, &exact)) << ctx;
      ASSERT_EQ(again.has_value(), counted.has_value()) << ctx;
      if (counted) {
        EXPECT_TRUE(*again == *counted) << ctx;
      }

      budget.maxSteps = bags - 1;
      BudgetGuard shortOne(budget);
      try {
        (void)solveOneShot(instance, policy, &shortOne);
        ADD_FAILURE() << ctx << ": a budget of n - 1 steps did not trip";
      } catch (const SolveInterrupted& e) {
        EXPECT_EQ(e.verdict(), BudgetVerdict::StepLimit) << ctx;
      }
    }
    EXPECT_GE(feasible, 10) << toString(policy);  // the placement check ran
  }
}

// The cache layout is keyed by the bag schedule (the postorder and each
// vertex's merge order), a pure function of tree shape. Two solvers over the
// same shape — one on the original tree, one on a rebuild from its parent
// array — must resolve to bit-identical placements, both at the initial solve and after replaying
// the same mutation on each side. Any schedule or merge-order drift between
// the two constructions would surface here as a placement mismatch.
TEST(IncrementalSolver, BagScheduleStableAcrossTreeRebuild) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      ProblemInstance original = smallHomogeneous(seed, qosFraction);
      ProblemInstance rebuilt = original;
      std::vector<VertexId> parents(original.tree.vertexCount());
      std::vector<VertexKind> kinds(original.tree.vertexCount());
      for (std::size_t v = 0; v < original.tree.vertexCount(); ++v) {
        parents[v] = original.tree.parent(static_cast<VertexId>(v));
        kinds[v] = original.tree.kind(static_cast<VertexId>(v));
      }
      rebuilt.tree = Tree::fromParents(parents, kinds);

      IncrementalSolver a(original, policy);
      IncrementalSolver b(rebuilt, policy);
      const auto first = a.resolve();
      const auto second = b.resolve();
      ASSERT_EQ(first != nullptr, second != nullptr)
          << toString(policy) << " seed=" << seed;
      if (first) {
        EXPECT_EQ(*first, *second) << toString(policy) << " seed=" << seed;
      }

      // Replay one identical value mutation on both sides.
      const auto clients = original.tree.clients();
      InstanceDelta delta;
      delta.kind = DeltaKind::RateChange;
      delta.node = clients[clients.size() / 2];
      delta.rate = original.requests[static_cast<std::size_t>(delta.node)] + 2;
      a.apply(delta);
      b.apply(delta);
      const auto firstAfter = a.resolve();
      const auto secondAfter = b.resolve();
      ASSERT_EQ(firstAfter != nullptr, secondAfter != nullptr)
          << toString(policy) << " seed=" << seed;
      if (firstAfter) {
        EXPECT_EQ(*firstAfter, *secondAfter) << toString(policy) << " seed=" << seed;
      }
    }
  }
}

// W is every frontier's flow ceiling, so a capacity change must rebuild the
// cached chains, not reuse ones pruned under the old W. Lower W step by step
// (dropping states the old ceiling kept alive), then restore it (reviving
// states the lowered ceiling dropped): after every step the incremental
// answer must equal a scratch solve, infeasible verdicts included.
TEST(IncrementalSolver, CapacityLoweredAndRestoredMatchesScratch) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    int steps = 0;
    int infeasible = 0;
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      ProblemInstance instance = smallHomogeneous(seed, qosFraction);
      const Requests W = instance.homogeneousCapacity();
      IncrementalSolver solver(instance, policy);
      (void)solver.resolve();
      for (const Requests capacity : {W - 1, W / 2, W / 3, W / 2, W}) {
        if (capacity <= 0) continue;
        InstanceDelta delta;
        delta.kind = DeltaKind::CapacityChange;
        delta.capacity = capacity;
        solver.apply(delta);
        const auto got = solver.resolve();
        const auto truth = scratch(instance, policy);
        const std::string ctx = std::string(toString(policy)) +
                                " seed=" + std::to_string(seed) +
                                " W=" + std::to_string(capacity);
        ASSERT_EQ(got != nullptr, truth.has_value()) << ctx;
        if (truth) {
          EXPECT_EQ(*got, *truth) << ctx;
        } else {
          ++infeasible;
        }
        ++steps;
      }
    }
    EXPECT_GE(steps, 80) << toString(policy);
    EXPECT_GT(infeasible, 0) << toString(policy);  // the ceiling cut deep
  }
}

// The solver caches W and re-derives it, with its homogeneity check, only
// when a delta may have moved it. A per-node capacity change or a pod
// attached with another W makes the instance heterogeneous: the next resolve
// rejects it once more from scratch and throws, and restoring W heals it.
TEST(IncrementalSolver, HeterogeneousCapacityDeltaThrowsOnResolve) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    ProblemInstance instance = smallHomogeneous(3, qosFraction);
    const Requests W = instance.homogeneousCapacity();
    const VertexId host = instance.tree.internals().front();
    InstanceDelta perNode;
    perNode.kind = DeltaKind::CapacityChange;
    perNode.node = host;
    perNode.capacity = W + 1;
    InstanceDelta pod;
    pod.kind = DeltaKind::SubtreeAttach;
    pod.node = host;
    pod.capacity = W + 1;
    pod.podRates = {1, 1};
    for (const InstanceDelta& delta : {perNode, pod}) {
      const std::string ctx = std::string(toString(policy)) + " kind=" +
                              std::to_string(static_cast<int>(delta.kind));
      ProblemInstance live = instance;
      IncrementalSolver solver(live, policy);
      (void)solver.resolve();
      solver.apply(delta);
      EXPECT_THROW((void)solver.resolve(), PreconditionError) << ctx;
      EXPECT_EQ(solver.cacheStats().scratchFallbacks, 1u) << ctx;

      InstanceDelta restore;
      restore.kind = DeltaKind::CapacityChange;
      restore.capacity = W;
      solver.apply(restore);
      const auto got = solver.resolve();
      const auto truth = scratch(live, policy);
      ASSERT_EQ(got != nullptr, truth.has_value()) << ctx;
      if (truth) {
        EXPECT_EQ(*got, *truth) << ctx;
      }
    }
  }
}

// Subtree demand by brute force: one postorder pass over the instance.
std::vector<Requests> subtreeDemands(const ProblemInstance& instance) {
  const Tree& tree = instance.tree;
  std::vector<Requests> demand(tree.vertexCount(), 0);
  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.isClient(v)) demand[vi] = instance.requests[vi];
    if (tree.parent(v) != kNoVertex)
      demand[static_cast<std::size_t>(tree.parent(v))] += demand[vi];
  }
  return demand;
}

InstanceDelta capacityChange(Requests capacity) {
  InstanceDelta delta;
  delta.kind = DeltaKind::CapacityChange;
  delta.capacity = capacity;
  return delta;
}

// A W change re-solves only the bags whose subtree demand exceeds the smaller
// W, so the kept bags must carry over bit-identical through every kind of
// delta that moves demands. W flips (one to W = 1, which no policy can serve,
// and back) interleave with drawMutation's mix of rate changes, leaves,
// joins, pods and detaches; the answer must equal the one-shot solve after
// every step, infeasible verdicts and their recovery included.
TEST(IncrementalSolver, CapacityFlipsInterleavedWithChurnMatchScratch) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    int steps = 0;
    int infeasibleFlips = 0;
    int restoringFlips = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
      ProblemInstance instance = smallHomogeneous(seed, qosFraction);
      const Requests baseW = instance.homogeneousCapacity();
      const std::vector<Requests> flips = {baseW + 3, baseW, 1, baseW,
                                           std::max<Requests>(1, baseW - 2), baseW};
      IncrementalSolver solver(instance, policy);
      bool feasible = solver.resolve() != nullptr;
      MutationWorkloadConfig mix;
      mix.capacityWeight = 0.0;  // the flips below are the only W changes
      mix.rateCap = 0.3;
      Prng rng(seed * 104729);
      for (int step = 0; step < 24; ++step) {
        const bool flip = step % 4 == 3;
        const InstanceDelta delta = flip ? capacityChange(flips[static_cast<std::size_t>(
                                               (step / 4) % flips.size())])
                                         : drawMutation(instance, mix, rng);
        solver.apply(delta);
        const auto got = solver.resolve();
        const auto truth = scratch(instance, policy);
        const std::string ctx = std::string(toString(policy)) + " seed=" +
                                std::to_string(seed) + " step=" + std::to_string(step) +
                                " kind=" + std::to_string(static_cast<int>(delta.kind));
        ASSERT_EQ(got != nullptr, truth.has_value()) << ctx;
        if (truth) {
          EXPECT_EQ(*got, *truth) << ctx;
        }
        if (flip && feasible && !truth) ++infeasibleFlips;
        if (flip && !feasible && truth) ++restoringFlips;
        feasible = truth.has_value();
        ++steps;
      }
    }
    EXPECT_EQ(steps, 40 * 24) << toString(policy);
    EXPECT_GT(infeasibleFlips, 0) << toString(policy);
    EXPECT_GT(restoringFlips, 0) << toString(policy);
  }
}

// One W flip recomputes exactly the internal bags whose subtree demand
// exceeds min(W, W'): counted against a brute-force postorder demand pass
// after churn (rate changes, leaves, joins, pods, multi-level detaches) has
// moved the demands, so the solver's demand upkeep is checked too. Each new
// W is the demand of a random internal bag, so bags sit right at the
// threshold and a demand off by one shows.
TEST(IncrementalSolver, CapacityFlipRecomputesOnlyWhereWBinds) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    GeneratorConfig config;
    config.minSize = config.maxSize = 300;
    config.clientFraction = 0.6;
    config.maxRequests = 8;
    config.lambda = 0.3;
    config.unitCosts = true;
    config.qosFraction = policy == OnlinePolicy::ClosestQos ? 0.3 : 0.0;
    ProblemInstance instance = generateInstance(config, 7, 0);
    IncrementalSolver solver(instance, policy);
    (void)solver.resolve();
    MutationWorkloadConfig mix;
    mix.rateWeight = 0.35;
    mix.leaveWeight = 0.1;
    mix.capacityWeight = 0.0;
    mix.joinWeight = 0.15;
    mix.attachWeight = 0.15;
    mix.detachWeight = 0.25;
    mix.rateCap = 0.5;
    Prng rng(99);
    std::size_t partial = 0;
    for (int round = 0; round < 30; ++round) {
      for (int k = 0; k < 4; ++k) solver.apply(drawMutation(instance, mix, rng));
      (void)solver.resolve();  // settles the churn's own stamps

      const std::vector<Requests> demand = subtreeDemands(instance);
      const auto& internals = instance.tree.internals();
      const Requests before = instance.homogeneousCapacity();
      Requests after = std::max<Requests>(
          1, demand[static_cast<std::size_t>(internals[static_cast<std::size_t>(
                 rng.uniformInt(0, static_cast<std::int64_t>(internals.size()) - 1))])]);
      if (after == before) ++after;
      const Requests binds = std::min(before, after);
      std::size_t want = 0;
      for (const VertexId v : internals)
        if (demand[static_cast<std::size_t>(v)] > binds) ++want;

      const std::size_t misses = solver.cacheStats().misses;
      const std::size_t flips = solver.cacheStats().globalInvalidations;
      solver.apply(capacityChange(after));
      const auto got = solver.resolve();
      const std::string ctx = std::string(toString(policy)) + " round=" + std::to_string(round);
      EXPECT_EQ(solver.cacheStats().misses - misses, want) << ctx;
      EXPECT_EQ(solver.cacheStats().globalInvalidations, flips + 1) << ctx;
      if (want < internals.size()) ++partial;
      const auto truth = scratch(instance, policy);
      ASSERT_EQ(got != nullptr, truth.has_value()) << ctx;
      if (truth) {
        EXPECT_EQ(*got, *truth) << ctx;
      }
    }
    EXPECT_GT(partial, 10u) << toString(policy);  // the flips did skip bags
  }
}

// Subtree demands follow rate changes the cache never heard of: after value
// deltas applied without invalidation, a W flip still stamps exactly the
// internals whose brute-force demand exceeds min(W, W'). No resolve runs (the
// poisoned cache would serve stale answers), so the flip's dirty stamps are
// the count.
TEST(IncrementalSolver, DemandsFollowDeltasAppliedWithoutInvalidation) {
  GeneratorConfig config;
  config.minSize = config.maxSize = 300;
  config.clientFraction = 0.6;
  config.maxRequests = 8;
  config.lambda = 0.3;
  config.unitCosts = true;
  ProblemInstance instance = generateInstance(config, 8, 0);
  IncrementalSolver solver(instance, OnlinePolicy::Closest);
  (void)solver.resolve();
  MutationWorkloadConfig mix;
  mix.structural = false;
  mix.capacityWeight = 0.0;
  mix.rateWeight = 0.6;
  mix.leaveWeight = 0.2;
  mix.detachWeight = 0.2;
  mix.rateCap = 0.5;
  Prng rng(17);
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 3; ++k) solver.applyWithoutInvalidation(drawMutation(instance, mix, rng));
    const std::vector<Requests> demand = subtreeDemands(instance);
    const auto& internals = instance.tree.internals();
    const Requests before = instance.homogeneousCapacity();
    Requests after = std::max<Requests>(
        1, demand[static_cast<std::size_t>(internals[static_cast<std::size_t>(
               rng.uniformInt(0, static_cast<std::int64_t>(internals.size()) - 1))])]);
    if (after == before) ++after;
    std::size_t want = 0;
    for (const VertexId v : internals)
      if (demand[static_cast<std::size_t>(v)] > std::min(before, after)) ++want;
    const std::size_t stamps = solver.cacheStats().invalidations;
    solver.apply(capacityChange(after));
    EXPECT_EQ(solver.cacheStats().invalidations - stamps, want) << "round=" << round;
  }
}

// An allocation failure inside a W-flip resolve (slab growth or the
// compaction's staging copy) takes the scratch fallback, and the answer still
// equals the one-shot solve. Each resolve runs under a plan that fails the
// first allocation probe, so every flip that grows or compacts the slab
// falls back once.
TEST(IncrementalSolver, AllocationFaultDuringCapacityFlipFallsBackToScratch) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    ProblemInstance instance = smallHomogeneous(5, qosFraction);
    const Requests baseW = instance.homogeneousCapacity();
    IncrementalSolver solver(instance, policy);
    (void)solver.resolve();
    for (int step = 0; step < 400 && solver.cacheStats().scratchFallbacks < 3; ++step) {
      solver.apply(capacityChange(step % 2 == 0 ? baseW + 1 : baseW));
      std::shared_ptr<const Placement> got;
      {
        fault::Plan plan;
        plan.armSite(fault::Site::Allocation, 1, 1);
        fault::ScopedPlan armed(plan);
        got = solver.resolve();
      }
      const auto truth = scratch(instance, policy);
      const std::string ctx = std::string(toString(policy)) + " step=" + std::to_string(step);
      ASSERT_EQ(got != nullptr, truth.has_value()) << ctx;
      if (truth) {
        EXPECT_EQ(*got, *truth) << ctx;
      }
    }
    EXPECT_GE(solver.cacheStats().scratchFallbacks, 3u) << toString(policy);
  }
}

// Value mutations must hit the cache on untouched subtrees: a one-client
// change on a two-branch tree recomputes only the client's root path.
TEST(IncrementalSolver, CacheHitsOnUntouchedSubtrees) {
  TreeBuilder b;
  const VertexId root = b.addRoot(10);
  const VertexId left = b.addInternal(root, 10);
  const VertexId right = b.addInternal(root, 10);
  const VertexId c0 = b.addClient(left, 3);
  b.addClient(left, 2);
  b.addClient(right, 4);
  b.addClient(right, 1);
  b.useUnitCosts();
  ProblemInstance instance = b.build();

  IncrementalSolver solver(instance, OnlinePolicy::Multiple);
  ASSERT_TRUE(solver.resolve() != nullptr);
  const FrontierCacheStats before = solver.cacheStats();

  InstanceDelta delta;
  delta.kind = DeltaKind::RateChange;
  delta.node = c0;
  delta.rate = 5;
  solver.apply(delta);
  ASSERT_TRUE(solver.resolve() != nullptr);
  const FrontierCacheStats after = solver.cacheStats();

  // Recomputed: c0, left, root. Reused: the right branch and left's other
  // client — at least 4 of the 7 vertices must be cache hits.
  EXPECT_EQ(after.misses - before.misses, 3u);
  EXPECT_GE(after.hits - before.hits, 4u);
  EXPECT_GT(after.hitRate(), 0.0);
}

// ---------------------------------------------------------------------------
// Cache poisoning: dirtying too little MUST yield a stale answer. The test
// hook applies a rate drop without invalidation — the epoch checks then see
// every subtree as clean and reproduce the pre-mutation optimum, which no
// longer matches scratch. A full apply() of the same delta heals the cache.
// ---------------------------------------------------------------------------

TEST(IncrementalSolver, PoisonedCacheServesStaleAnswer) {
  TreeBuilder b;
  const VertexId root = b.addRoot(5);
  const VertexId mid = b.addInternal(root, 5);
  const VertexId c0 = b.addClient(mid, 4);
  b.addClient(mid, 4);
  b.useUnitCosts();
  ProblemInstance instance = b.build();

  IncrementalSolver solver(instance, OnlinePolicy::Multiple);
  const auto initial = solver.resolve();
  ASSERT_TRUE(initial != nullptr);
  EXPECT_EQ(initial->replicaCount(), 2u);  // 8 requests over W = 5

  // Drop c0 to 1 (total 5, one replica suffices) WITHOUT invalidating.
  InstanceDelta delta;
  delta.kind = DeltaKind::RateChange;
  delta.node = c0;
  delta.rate = 1;
  solver.applyWithoutInvalidation(delta);

  const auto stale = solver.resolve();
  const auto fresh = solveMultipleHomogeneousDP(instance);
  ASSERT_TRUE(stale != nullptr);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(stale->replicaCount(), 2u) << "poisoned cache should be stale";
  EXPECT_EQ(fresh->replicaCount(), 1u);
  EXPECT_FALSE(*stale == *fresh);

  // Proper invalidation of the same instance state heals the cache.
  solver.apply(delta);
  const auto healed = solver.resolve();
  ASSERT_TRUE(healed != nullptr);
  EXPECT_TRUE(*healed == *fresh);
}

// ---------------------------------------------------------------------------
// Snapshots: resolve() publishes immutable placements from a double-buffered
// incumbent. Reads with nothing to change share the published pointer, a
// snapshot a caller keeps never changes under later steps, and a caller that
// drops its answers costs the solver no full copy.
// ---------------------------------------------------------------------------

constexpr OnlinePolicy kAllPolicies[] = {OnlinePolicy::Closest, OnlinePolicy::Multiple,
                                         OnlinePolicy::ClosestQos};

TEST(IncrementalSnapshots, NoDeltaResolveReturnsTheSamePointer) {
  for (const OnlinePolicy policy : kAllPolicies) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      ProblemInstance instance = smallHomogeneous(seed, qosFraction);
      IncrementalSolver solver(instance, policy);
      const auto first = solver.resolve();
      if (!first) continue;
      const std::size_t copies = solver.cacheStats().snapshotCopies;
      EXPECT_EQ(solver.resolve().get(), first.get()) << toString(policy) << " seed=" << seed;
      EXPECT_EQ(solver.resolve().get(), first.get()) << toString(policy) << " seed=" << seed;
      EXPECT_EQ(solver.cacheStats().snapshotCopies, copies);
    }
  }
}

TEST(IncrementalSnapshots, HeldSnapshotsOutliveLaterSteps) {
  for (const OnlinePolicy policy : kAllPolicies) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    ProblemInstance instance = smallHomogeneous(3, qosFraction);
    IncrementalSolver solver(instance, policy);
    MutationWorkloadConfig config;
    config.policy = policy;
    config.rateCap = 0.5;
    Prng rng(4242);
    std::vector<std::pair<std::shared_ptr<const Placement>, Placement>> held;
    for (int step = 0; step < 300; ++step) {
      solver.apply(drawMutation(instance, config, rng));
      const auto snapshot = solver.resolve();
      const auto truth = scratch(instance, policy);
      ASSERT_EQ(snapshot != nullptr, truth.has_value())
          << toString(policy) << " step=" << step;
      if (!snapshot) continue;
      ASSERT_EQ(*snapshot, *truth) << toString(policy) << " step=" << step;
      if (step % 3 == 0) held.emplace_back(snapshot, *snapshot);
    }
    ASSERT_GE(held.size(), 20u) << toString(policy);
    for (std::size_t k = 0; k < held.size(); ++k)
      EXPECT_EQ(*held[k].first, held[k].second) << toString(policy) << " held #" << k;
    EXPECT_GT(solver.cacheStats().snapshotCopies, 0u) << toString(policy);
  }
}

TEST(IncrementalSnapshots, DroppedAnswersCostNoFullCopy) {
  for (const OnlinePolicy policy : kAllPolicies) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    std::uint64_t seed = 1;
    while (!scratch(smallHomogeneous(seed, qosFraction), policy)) ++seed;
    ProblemInstance instance = smallHomogeneous(seed, qosFraction);
    IncrementalSolver solver(instance, policy);
    ASSERT_NE(solver.resolve(), nullptr) << toString(policy);
    const auto clients = instance.tree.clients();
    const Requests W = instance.homogeneousCapacity();
    Prng rng(77);
    const auto step = [&] {
      InstanceDelta delta;
      delta.kind = DeltaKind::RateChange;
      delta.node = clients[static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(clients.size()) - 1))];
      delta.rate = static_cast<Requests>(rng.uniformInt(1, std::max<Requests>(1, W / 3)));
      solver.apply(delta);
      return solver.resolve();
    };
    // Warm-up: the first repair after the initial (rebuilt) solve levels its
    // back buffer by one full copy.
    for (int k = 0; k < 3; ++k) (void)step();
    const std::size_t warm = solver.cacheStats().snapshotCopies;
    int published = 0;
    for (int k = 0; k < 200; ++k) published += step() != nullptr;
    ASSERT_GT(published, 100) << toString(policy);
    EXPECT_EQ(solver.cacheStats().snapshotCopies, warm) << toString(policy);

    // Keeping every answer instead leaves the solver a held back buffer at
    // every step that publishes, except the first: its back buffer is the
    // snapshot before `kept` began, which was dropped.
    std::vector<std::shared_ptr<const Placement>> kept{solver.resolve()};
    std::size_t changed = 0;
    const std::size_t before = solver.cacheStats().snapshotCopies;
    for (int k = 0; k < 50; ++k) {
      auto next = step();
      if (next && next.get() != kept.back().get()) ++changed;
      if (next) kept.push_back(std::move(next));
    }
    ASSERT_GT(changed, 0u) << toString(policy);
    EXPECT_EQ(solver.cacheStats().snapshotCopies - before, changed - 1) << toString(policy);
  }
}

// A repair that trips on a poisoned cache writes only the back buffer: the
// scratch fallback drops it, and a snapshot published before stays intact.
TEST(IncrementalSnapshots, HeldSnapshotSurvivesScratchFallback) {
  TreeBuilder b;
  const VertexId root = b.addRoot(5);
  const VertexId mid = b.addInternal(root, 5);
  const VertexId c0 = b.addClient(mid, 1);
  const VertexId c1 = b.addClient(mid, 4);
  b.useUnitCosts();
  ProblemInstance instance = b.build();

  IncrementalSolver solver(instance, OnlinePolicy::Multiple);
  const auto held = solver.resolve();
  ASSERT_NE(held, nullptr);
  ASSERT_EQ(held->replicaCount(), 1u);  // 5 requests, W = 5
  const Placement deep = *held;

  // Raise c0 to 4 behind the cache's back, then change c1 properly: the DP
  // still sees 1 + 3 requests and keeps one replica, so the repair cannot
  // place the real 7 and trips.
  InstanceDelta poison;
  poison.kind = DeltaKind::RateChange;
  poison.node = c0;
  poison.rate = 4;
  solver.applyWithoutInvalidation(poison);
  InstanceDelta legit;
  legit.kind = DeltaKind::RateChange;
  legit.node = c1;
  legit.rate = 3;
  solver.apply(legit);

  const std::size_t fallbacks = solver.cacheStats().scratchFallbacks;
  const auto healed = solver.resolve();
  EXPECT_EQ(solver.cacheStats().scratchFallbacks, fallbacks + 1);
  const auto fresh = solveMultipleHomogeneousDP(instance);
  ASSERT_NE(healed, nullptr);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(*healed, *fresh);
  EXPECT_EQ(healed->replicaCount(), 2u);
  EXPECT_NE(healed.get(), held.get());
  EXPECT_EQ(*held, deep);
}

// A join or a pod attach is an assignment repair, not a rebuild: the step
// levels the back buffer from the journal and grows it, and once its answer
// is dropped the next step does the same — neither makes a full O(s) copy.
TEST(IncrementalSolver, StructuralStepMakesNoSnapshotCopy) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
    int checked = 0;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      GeneratorConfig config;
      config.minSize = 8;
      config.maxSize = 20;
      config.clientFraction = 0.55;
      config.maxRequests = 8;
      config.lambda = 0.25;  // light load: Closest streams stay feasible
      config.unitCosts = true;
      config.qosFraction = qosFraction;
      Prng gen(seed);
      ProblemInstance instance = generateInstance(config, gen);
      IncrementalSolver solver(instance, policy);
      if (!solver.resolve()) continue;
      const VertexId client = instance.tree.clients().front();
      const VertexId host = instance.tree.internals().back();
      InstanceDelta rate;
      rate.kind = DeltaKind::RateChange;
      rate.node = client;
      rate.rate = 0;
      solver.apply(rate);
      if (!solver.resolve()) continue;  // levels the rebuilt first answer: one copy

      InstanceDelta join;
      join.kind = DeltaKind::ClientJoin;
      join.node = host;
      join.rate = 1;
      InstanceDelta pod;
      pod.kind = DeltaKind::SubtreeAttach;
      pod.node = host;
      pod.capacity = instance.homogeneousCapacity();
      pod.podRates = {1, 0, 1};
      for (const InstanceDelta& structural : {join, pod}) {
        const std::string ctx = std::string(toString(policy)) + " seed=" +
                                std::to_string(seed) + " kind=" +
                                std::to_string(static_cast<int>(structural.kind));
        const std::size_t copies = solver.cacheStats().snapshotCopies;
        solver.apply(structural);
        const bool feasible = solver.resolve() != nullptr;  // answer dropped
        EXPECT_EQ(solver.cacheStats().snapshotCopies, copies) << ctx;
        if (!feasible) break;
        rate.rate = instance.requests[static_cast<std::size_t>(client)] == 0 ? 1 : 0;
        solver.apply(rate);
        const auto next = solver.resolve();
        EXPECT_EQ(solver.cacheStats().snapshotCopies, copies) << ctx;
        const auto truth = scratch(instance, policy);
        ASSERT_EQ(next != nullptr, truth.has_value()) << ctx;
        if (!truth) break;
        EXPECT_EQ(*next, *truth) << ctx;
        ++checked;
      }
    }
    EXPECT_GE(checked, 20) << toString(policy);
  }
}

// The persistent slab must not double under churn. A whole-cache flush
// recomputes about as many entries as are live, so the compaction gate runs
// before such a recompute could overflow the reserve, and the slab keeps the
// footprint of the cold solve over a seeded 500-step stream of the
// serve-churn mix (rate redraws at cap 0.1, leaves, joins, pod attaches and
// detaches, W raised by up to 10 % and restored).
TEST(IncrementalSolver, ArenaStaysWithinItsReserveUnderChurn) {
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    GeneratorConfig config;
    config.minSize = config.maxSize = 3000;
    config.clientFraction = 0.8;
    config.leafClientBias = 1.0;
    config.minRequests = config.maxRequests = 1;
    config.lambda = 0.05;
    config.unitCosts = true;
    config.qosFraction = 0.3;
    config.qosMinHops = 6;
    config.qosMaxHops = 12;
    ProblemInstance instance = generateInstance(config, 11, 0);
    const Requests baseW = instance.homogeneousCapacity();
    const auto redraw = [&](Prng& rng) {
      return rng.uniformInt(0, std::max<Requests>(1, (baseW + 5) / 10));
    };
    IncrementalSolver solver(instance, policy);
    ASSERT_NE(solver.resolve(), nullptr) << toString(policy);
    const std::size_t reserve = solver.cacheStats().arenaBytes;
    MutationWorkloadConfig mix;
    mix.rateCap = 0.1;
    Prng rng(4242);
    std::size_t peak = reserve;
    int feasible = 0;
    for (int step = 0; step < 500; ++step) {
      InstanceDelta delta = drawMutation(instance, mix, rng);
      if (delta.kind == DeltaKind::CapacityChange) {
        const Requests W = instance.homogeneousCapacity();
        delta.capacity = W == baseW ? baseW + rng.uniformInt(1, std::max<Requests>(1, baseW / 10))
                                    : baseW;
      } else if (delta.kind == DeltaKind::ClientJoin) {
        delta.rate = redraw(rng);
      } else if (delta.kind == DeltaKind::SubtreeAttach) {
        for (Requests& r : delta.podRates) r = redraw(rng);
      }
      solver.apply(delta);
      if (solver.resolve() != nullptr) ++feasible;
      peak = std::max(peak, solver.cacheStats().arenaBytes);
    }
    EXPECT_EQ(peak, reserve) << toString(policy);
    EXPECT_GT(solver.cacheStats().compactions, 0u) << toString(policy);
    EXPECT_GT(solver.cacheStats().globalInvalidations, 10u) << toString(policy);
    EXPECT_GT(feasible, 450) << toString(policy);
  }
}

// ---------------------------------------------------------------------------
// Multiple assignment repair: the repair moves each replica's absorption
// boundary instead of replaying the greedy. After every step the placement
// must equal the one-shot solve, and every take list must mirror it: client
// scan order, each amount the pair's share, summing to the replica's load,
// and the lists together covering every share.
// ---------------------------------------------------------------------------

::testing::AssertionResult takesMirror(const IncrementalSolver& solver,
                                       const ProblemInstance& instance,
                                       const Placement& placement) {
  const Tree& tree = instance.tree;
  std::size_t takes = 0;
  for (const VertexId v : tree.internals()) {
    const auto list = solver.serverTakes(v);
    Requests load = 0;
    for (std::size_t k = 0; k < list.size(); ++k) {
      const auto [c, amount] = list[k];
      if (k > 0 && tree.clientIndex(list[k - 1].first) >= tree.clientIndex(c))
        return ::testing::AssertionFailure() << "takes of " << v << " out of scan order";
      Requests share = 0;
      for (const ServedShare& s : placement.shares(c))
        if (s.server == v) share = s.amount;
      if (amount <= 0 || share != amount)
        return ::testing::AssertionFailure()
               << "take (" << c << ", " << amount << ") of " << v << " vs share " << share;
      load += amount;
    }
    if (load != placement.serverLoad(v))
      return ::testing::AssertionFailure()
             << "takes of " << v << " sum to " << load << ", load " << placement.serverLoad(v);
    takes += list.size();
  }
  if (takes != placement.stats().shareCount)
    return ::testing::AssertionFailure()
           << takes << " takes for " << placement.stats().shareCount << " shares";
  return ::testing::AssertionSuccess();
}

/// Apply `deltas`, resolve once, and check the answer against the one-shot
/// solve and the take lists against the answer. Null when infeasible.
std::shared_ptr<const Placement> stepMultiple(IncrementalSolver& solver,
                                              ProblemInstance& instance,
                                              const std::vector<InstanceDelta>& deltas,
                                              const std::string& ctx) {
  for (const InstanceDelta& delta : deltas) solver.apply(delta);
  auto got = solver.resolve();
  const auto truth = scratch(instance, OnlinePolicy::Multiple);
  EXPECT_EQ(got != nullptr, truth.has_value()) << ctx;
  if (got && truth) {
    EXPECT_EQ(*got, *truth) << ctx;
    EXPECT_TRUE(takesMirror(solver, instance, *got)) << ctx;
    // The share pool is packed again once its holes outnumber the shares.
    EXPECT_LE(got->stats().holeSlots, got->stats().shareCount) << ctx;
  }
  return got;
}

InstanceDelta rateChange(VertexId client, Requests rate) {
  InstanceDelta delta;
  delta.kind = DeltaKind::RateChange;
  delta.node = client;
  delta.rate = rate;
  return delta;
}

using Takes = std::vector<std::pair<VertexId, Requests>>;

Takes takesOf(const IncrementalSolver& solver, VertexId server) {
  const auto list = solver.serverTakes(server);
  return {list.begin(), list.end()};
}

// R -> B -> A -> {a1, a2, a3, a4} and R -> x, W = 10, so a1..a4 then x is
// the scan order. At rates 10/4/4/4 and x = 8 all three replicas are
// saturated: A takes a1; B takes a2, a3 and 2 of a4; R takes the rest of a4
// and x. Total demand stays above 2W through every rate step below, so the
// replica set stays {A, B, R} and each step moves boundaries only.
TEST(MultipleRepair, BoundariesMoveOnHandBuiltChain) {
  TreeBuilder b;
  const VertexId root = b.addRoot(10);
  const VertexId mid = b.addInternal(root, 10);
  const VertexId low = b.addInternal(mid, 10);
  const VertexId a1 = b.addClient(low, 10);
  const VertexId a2 = b.addClient(low, 4);
  const VertexId a3 = b.addClient(low, 4);
  const VertexId a4 = b.addClient(low, 4);
  const VertexId x = b.addClient(root, 8);
  b.useUnitCosts();
  ProblemInstance instance = b.build();
  IncrementalSolver solver(instance, OnlinePolicy::Multiple);
  ASSERT_NE(stepMultiple(solver, instance, {}, "initial"), nullptr);
  const Takes lowFull{{a1, 10}};
  const Takes midFull{{a2, 4}, {a3, 4}, {a4, 2}};
  const Takes rootFull{{a4, 2}, {x, 8}};
  EXPECT_EQ(takesOf(solver, low), lowFull);
  EXPECT_EQ(takesOf(solver, mid), midFull);
  EXPECT_EQ(takesOf(solver, root), rootFull);

  // A rate drop: A extends over a2 and a3 (B's) into a4, which B and R split.
  ASSERT_NE(stepMultiple(solver, instance, {rateChange(a1, 1)}, "drop a1"), nullptr);
  EXPECT_EQ(takesOf(solver, low), (Takes{{a1, 1}, {a2, 4}, {a3, 4}, {a4, 1}}));
  EXPECT_EQ(takesOf(solver, mid), (Takes{{a4, 3}}));
  EXPECT_EQ(takesOf(solver, root), (Takes{{x, 8}}));

  // A rate raise: A cuts back past three takes, and B and R take them again.
  ASSERT_NE(stepMultiple(solver, instance, {rateChange(a1, 10)}, "raise a1"), nullptr);
  EXPECT_EQ(takesOf(solver, low), lowFull);
  EXPECT_EQ(takesOf(solver, mid), midFull);
  EXPECT_EQ(takesOf(solver, root), rootFull);

  // Zero rates inside the scan run. A drop walks A's boundary over a2, just
  // zeroed in the same step; then a2 comes back while a3 goes quiet, which
  // edits two whole takes before A's boundary and leaves the boundary put.
  ASSERT_NE(stepMultiple(solver, instance, {rateChange(a2, 0), rateChange(a1, 5)},
                         "zero a2, drop a1"),
            nullptr);
  EXPECT_EQ(takesOf(solver, low), (Takes{{a1, 5}, {a3, 4}, {a4, 1}}));
  EXPECT_EQ(takesOf(solver, mid), (Takes{{a4, 3}}));
  ASSERT_NE(stepMultiple(solver, instance, {rateChange(a2, 4), rateChange(a3, 0)},
                         "restore a2, zero a3"),
            nullptr);
  EXPECT_EQ(takesOf(solver, low), (Takes{{a1, 5}, {a2, 4}, {a4, 1}}));
  ASSERT_NE(stepMultiple(solver, instance, {rateChange(a3, 4), rateChange(a1, 10)}, "restore"),
            nullptr);
  EXPECT_EQ(takesOf(solver, mid), midFull);

  // The client B and R split leaves, comes back, and is detached.
  InstanceDelta leave;
  leave.kind = DeltaKind::ClientLeave;
  leave.node = a4;
  ASSERT_NE(stepMultiple(solver, instance, {leave}, "leave a4"), nullptr);
  EXPECT_EQ(takesOf(solver, mid), (Takes{{a2, 4}, {a3, 4}}));
  EXPECT_EQ(takesOf(solver, root), (Takes{{x, 8}}));
  ASSERT_NE(stepMultiple(solver, instance, {rateChange(a4, 4)}, "rejoin a4"), nullptr);
  EXPECT_EQ(takesOf(solver, root), rootFull);
  InstanceDelta detach;
  detach.kind = DeltaKind::SubtreeDetach;
  detach.node = a4;
  ASSERT_NE(stepMultiple(solver, instance, {detach}, "detach a4"), nullptr);
  EXPECT_EQ(takesOf(solver, root), (Takes{{x, 8}}));

  // A join and a pod under the saturated A: its takes stay, and the
  // newcomers (scanned right after a4) fall to B's forward walk.
  InstanceDelta join;
  join.kind = DeltaKind::ClientJoin;
  join.node = low;
  join.rate = 3;
  ASSERT_NE(stepMultiple(solver, instance, {join}, "join under A"), nullptr);
  EXPECT_EQ(takesOf(solver, low), lowFull);
  const auto joined = static_cast<VertexId>(instance.tree.vertexCount() - 1);
  EXPECT_EQ(takesOf(solver, mid), (Takes{{a2, 4}, {a3, 4}, {joined, 2}}));
  InstanceDelta pod;
  pod.kind = DeltaKind::SubtreeAttach;
  pod.node = low;
  pod.capacity = 10;
  pod.podRates = {2, 0, 1};
  ASSERT_NE(stepMultiple(solver, instance, {pod}, "pod under A"), nullptr);
  EXPECT_EQ(takesOf(solver, low), lowFull);

  // W flips into infeasibility and out again.
  EXPECT_EQ(stepMultiple(solver, instance, {capacityChange(1)}, "W=1"), nullptr);
  ASSERT_NE(stepMultiple(solver, instance, {capacityChange(12)}, "W=12"), nullptr);
  ASSERT_NE(stepMultiple(solver, instance, {capacityChange(10)}, "W=10"), nullptr);
}

// Seeded streams over every delta kind, W flips into infeasibility and back
// included, on trees deep enough that replicas flip between replica
// ancestors and replica descendants. Every step is checked as above, and the
// streams must have produced each case the repair distinguishes.
TEST(MultipleRepair, MatchesGreedyOnSeededStreams) {
  int midPathFlips = 0;
  int infeasibleFlips = 0;
  int restoringFlips = 0;
  int steps = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    GeneratorConfig config;
    config.minSize = 40;
    config.maxSize = 300;
    config.clientFraction = 0.6;
    config.maxChildren = 3;
    config.maxRequests = 8;
    config.lambda = 0.4;
    config.unitCosts = true;
    ProblemInstance instance = generateInstance(config, seed, 0);
    const Requests baseW = instance.homogeneousCapacity();
    IncrementalSolver solver(instance, OnlinePolicy::Multiple);
    auto last = stepMultiple(solver, instance, {}, "seed=" + std::to_string(seed));
    MutationWorkloadConfig mix;
    mix.capacityWeight = 0.0;
    mix.rateCap = 0.4;
    Prng rng(seed * 7717);
    for (int step = 0; step < 60; ++step) {
      std::vector<InstanceDelta> deltas;
      const int count = step % 5 == 4 ? 3 : 1;  // some resolves fold several deltas
      for (int k = 0; k < count; ++k) deltas.push_back(drawMutation(instance, mix, rng));
      if (step % 10 == 9) {
        const Requests W = instance.homogeneousCapacity();
        deltas.push_back(capacityChange(W != baseW ? baseW
                                        : step % 20 == 19
                                            ? 1
                                            : std::max<Requests>(1, baseW + rng.uniformInt(-3, 3))));
      }
      const std::string ctx = "seed=" + std::to_string(seed) + " step=" + std::to_string(step);
      auto next = stepMultiple(solver, instance, deltas, ctx);
      if (step % 10 == 9) {
        if (last && !next) ++infeasibleFlips;
        if (!last && next) ++restoringFlips;
      }
      if (last && next) {
        const Tree& tree = instance.tree;
        const auto held = [&](VertexId u) {
          return static_cast<std::size_t>(u) < last->vertexCount() &&
                 (last->hasReplica(u) || next->hasReplica(u));
        };
        for (const VertexId v : tree.internals()) {
          if (static_cast<std::size_t>(v) >= last->vertexCount() ||
              last->hasReplica(v) == next->hasReplica(v))
            continue;
          bool above = false;
          for (VertexId u = tree.parent(v); u != kNoVertex; u = tree.parent(u))
            above = above || held(u);
          bool below = false;
          for (const VertexId w : tree.internals())
            below = below || (tree.isAncestor(v, w) && held(w));
          if (above && below) ++midPathFlips;
        }
      }
      last = std::move(next);
      ++steps;
    }
  }
  EXPECT_EQ(steps, 24 * 60);
  EXPECT_GT(midPathFlips, 0);
  EXPECT_GT(infeasibleFlips, 0);
  EXPECT_GT(restoringFlips, 0);
}

// The repair writes only the pairs whose amount changes. On the serve-local
// delta mix (rate redraws at cap 0.1 and leaves, 4 : 1) at s=10^4 it makes
// 21.7 share assigns per step. The undo/replay repair it replaced
// re-assigned every take of every replica on a changed root path: 403.8 per
// step on this very stream. The bound is 1/8 of that. Deterministic: counts,
// no timing.
TEST(MultipleRepair, ServeLocalStepsAssignFewShares) {
  GeneratorConfig config;
  config.minSize = config.maxSize = 10000;
  config.clientFraction = 0.8;
  config.leafClientBias = 1.0;
  config.minRequests = config.maxRequests = 1;
  config.lambda = 0.05;
  config.unitCosts = true;
  config.qosFraction = 0.3;
  config.qosMinHops = 6;
  config.qosMaxHops = 12;
  MutationWorkloadConfig mix;
  mix.policy = OnlinePolicy::Multiple;
  mix.steps = 300;
  mix.seed = 1;
  mix.structural = false;
  mix.capacityWeight = 0.0;
  mix.rateWeight = 0.6;
  mix.leaveWeight = 0.15;
  mix.rateCap = 0.1;
  const double perStep = assignsPerStep(generateInstance(config, 1, 1), mix);
  EXPECT_GT(perStep, 0.0);
  EXPECT_LE(perStep, 403.8 / 8);
}

// ---------------------------------------------------------------------------
// IncrementalBounds: after any mutation, the memoized relaxation must agree
// with a from-scratch FrontierSubtreeRelaxation on the mutated instance.
// ---------------------------------------------------------------------------

TEST(IncrementalBounds, MatchesScratchRelaxationUnderMutations) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    ProblemInstance instance = smallHomogeneous(seed);
    IncrementalBounds bounds(instance);
    Prng rng(seed * 31337);
    MutationWorkloadConfig config;
    for (int step = 0; step < 6; ++step) {
      const InstanceDelta delta = drawMutation(instance, config, rng);
      bounds.apply(delta);
      bounds.refresh();
      const FrontierSubtreeRelaxation reference(instance);
      ASSERT_EQ(bounds.feasible(), reference.feasible())
          << "seed=" << seed << " step=" << step;
      if (!reference.feasible()) continue;
      EXPECT_EQ(bounds.minTotalReplicas(), reference.minTotalReplicas())
          << "seed=" << seed << " step=" << step;
      EXPECT_DOUBLE_EQ(bounds.decompositionBound(), reference.decompositionBound())
          << "seed=" << seed << " step=" << step;
      for (const VertexId v : instance.tree.internals())
        ASSERT_EQ(bounds.minReplicasIn(v), reference.minReplicasIn(v))
            << "seed=" << seed << " step=" << step << " v=" << v;
    }
  }
}

// ---------------------------------------------------------------------------
// Warm ILP session: the patched-in-place, incumbent-seeded, basis-reusing
// re-solve must stay cost-equal to a cold exact ILP after every mutation.
// ---------------------------------------------------------------------------

ExactIlpResult coldExact(const ProblemInstance& instance) {
  ExactIlpOptions options;
  options.enforceBandwidth = false;
  return solveExactViaIlp(instance, Policy::Multiple, options);
}

TEST(WarmIlpSession, MatchesColdExactUnderMutationStream) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProblemInstance instance = smallHomogeneous(seed);
    WarmIlpSession session(instance);
    MutationWorkloadConfig config;
    Prng rng(seed * 104729);
    for (int step = 0; step < 6; ++step) {
      const InstanceDelta delta = drawMutation(instance, config, rng);
      session.apply(delta);
      const ExactIlpResult warm = session.resolve();
      const ExactIlpResult cold = coldExact(instance);
      ASSERT_EQ(warm.feasible(), cold.feasible())
          << "seed=" << seed << " step=" << step;
      if (!cold.feasible()) continue;
      EXPECT_NEAR(warm.cost, cold.cost, 1e-6)
          << "seed=" << seed << " step=" << step;
      EXPECT_TRUE(testutil::placementValid(instance, *warm.placement,
                                           Policy::Multiple));
    }
    const WarmIlpStats& stats = session.stats();
    EXPECT_GT(stats.patches + stats.rebuilds, 0u);
  }
}

TEST(WarmIlpSession, HeterogeneousCapacityPatchAndRebuild) {
  TreeBuilder b;
  const VertexId root = b.addRoot(6);
  const VertexId mid = b.addInternal(root, 4);
  b.addClient(mid, 3);
  b.addClient(root, 2);
  b.useUnitCosts();
  ProblemInstance instance = b.build();

  WarmIlpSession session(instance);
  ASSERT_TRUE(session.resolve().feasible());

  // Shrink below the build-time M_j: pure box patch.
  InstanceDelta shrink;
  shrink.kind = DeltaKind::CapacityChange;
  shrink.node = mid;
  shrink.capacity = 2;
  session.apply(shrink);
  EXPECT_EQ(session.stats().patches, 1u);
  {
    const ExactIlpResult warm = session.resolve();
    const ExactIlpResult cold = coldExact(instance);
    ASSERT_EQ(warm.feasible(), cold.feasible());
    EXPECT_NEAR(warm.cost, cold.cost, 1e-6);
  }

  // Grow above M_j: the capx coefficient is stale — must rebuild.
  InstanceDelta grow;
  grow.kind = DeltaKind::CapacityChange;
  grow.node = mid;
  grow.capacity = 9;
  session.apply(grow);
  {
    const ExactIlpResult warm = session.resolve();
    const ExactIlpResult cold = coldExact(instance);
    ASSERT_EQ(warm.feasible(), cold.feasible());
    EXPECT_NEAR(warm.cost, cold.cost, 1e-6);
  }
  EXPECT_GE(session.stats().rebuilds, 1u);
}

// A resolve's guard bounds the whole search: the node LPs' pivots in the
// session's own workspace tick it as well as the node pops, as in the
// one-shot solveMip path. A guard that only saw node pops would read at most
// the node count.
TEST(WarmIlpSession, GuardCountsTheWorkspacePivots) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    ProblemInstance instance = smallHomogeneous(seed);
    WarmIlpSession session(instance);
    BudgetGuard counting(SolveBudget{.maxSteps = 1L << 40});
    const ExactIlpResult first = session.resolve(&counting);
    ASSERT_TRUE(first.proven) << "seed=" << seed;
    EXPECT_GT(first.warm.primalIterations + first.warm.dualIterations, 0) << "seed=" << seed;
    EXPECT_GT(counting.stepsUsed(), first.nodesExplored) << "seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Engine-level seams the session is built on.
// ---------------------------------------------------------------------------

// Every engine seam below must hold at every worker count: 0 and 1 run one
// inline worker, 2 runs the threaded pool.
constexpr int kWorkerCounts[] = {0, 1, 2};

TEST(MipEngine, InitialIncumbentSeedsUpperBound) {
  // min x0 + x1  s.t.  x0 + x1 >= 1, x binary. Seed the suboptimal (1, 1):
  // the search must still return the optimum, not the seed.
  lp::Model model;
  const int x0 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer);
  const int x1 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer);
  const lp::Term terms[2] = {{x0, 1.0}, {x1, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 1.0, terms);

  for (const int workers : kWorkerCounts) {
    lp::MipOptions options;
    options.workers = workers;
    options.initialIncumbent = {1.0, 1.0};
    const lp::MipResult result = lp::solveMip(model, options);
    ASSERT_EQ(result.status, lp::SolveStatus::Optimal) << "workers=" << workers;
    EXPECT_TRUE(result.proven) << "workers=" << workers;
    EXPECT_NEAR(result.objective, 1.0, 1e-9) << "workers=" << workers;
  }
}

TEST(MipEngine, InitialIncumbentReturnedWhenAlreadyOptimal) {
  // With knownLowerBound equal to the seed's objective the search can stop
  // at the root and must hand back the seeded point itself.
  lp::Model model;
  const int x0 = model.addVariable(0.0, 1.0, 2.0, lp::VarType::Integer);
  const lp::Term term[1] = {{x0, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 1.0, term);

  for (const int workers : kWorkerCounts) {
    lp::MipOptions options;
    options.workers = workers;
    options.initialIncumbent = {1.0};
    options.knownLowerBound = 2.0;
    const lp::MipResult result = lp::solveMip(model, options);
    ASSERT_TRUE(result.hasIncumbent()) << "workers=" << workers;
    EXPECT_NEAR(result.objective, 2.0, 1e-9) << "workers=" << workers;
    EXPECT_NEAR(result.values[0], 1.0, 1e-9) << "workers=" << workers;
  }
}

TEST(MipEngine, InitialIncumbentSurvivesZeroNodeBudget) {
  // No node may be explored, so the seed is the only answer there is: it must
  // come back as the incumbent, unproven, at every worker count.
  lp::Model model;
  const int x0 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer);
  const int x1 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer);
  const lp::Term terms[2] = {{x0, 1.0}, {x1, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 1.0, terms);

  for (const int workers : kWorkerCounts) {
    lp::MipOptions options;
    options.workers = workers;
    options.maxNodes = 0;
    options.initialIncumbent = {1.0, 1.0};
    const lp::MipResult result = lp::solveMip(model, options);
    EXPECT_EQ(result.nodesExplored, 0) << "workers=" << workers;
    ASSERT_TRUE(result.hasIncumbent()) << "workers=" << workers;
    EXPECT_EQ(result.values, options.initialIncumbent) << "workers=" << workers;
    EXPECT_NEAR(result.objective, 2.0, 1e-9) << "workers=" << workers;
    EXPECT_FALSE(result.proven) << "workers=" << workers;
  }
}

TEST(MipEngine, ExternalWorkspaceSurvivesRhsAndBoundPatches) {
  // Same standard form solved three times through one persistent workspace
  // with rhs/box patches in between; answers must match fresh cold solves.
  for (const int workers : kWorkerCounts) {
    lp::Model model;
    const int x = model.addVariable(0.0, 1.0, 3.0, lp::VarType::Integer);
    const int y = model.addVariable(0.0, 4.0, 1.0, lp::VarType::Continuous);
    const lp::Term cover[2] = {{x, 2.0}, {y, 1.0}};
    const int row = model.addConstraint(lp::Sense::GreaterEqual, 2.0, cover);

    lp::MipOptions warm;
    warm.workers = workers;
    lp::LpWorkspace workspace(model);
    warm.workspace = &workspace;

    for (const double rhs : {2.0, 4.0, 3.0}) {
      model.setRowRhs(row, rhs);
      const lp::MipResult viaWorkspace = lp::solveMip(model, warm);
      const lp::MipResult cold = lp::solveMip(model, lp::MipOptions{});
      ASSERT_EQ(viaWorkspace.status, cold.status)
          << "workers=" << workers << " rhs=" << rhs;
      EXPECT_NEAR(viaWorkspace.objective, cold.objective, 1e-9)
          << "workers=" << workers << " rhs=" << rhs;
    }

    // And a box patch: cap y at 1, forcing x into the cover.
    model.setBounds(y, 0.0, 1.0);
    const lp::MipResult viaWorkspace = lp::solveMip(model, warm);
    const lp::MipResult cold = lp::solveMip(model, lp::MipOptions{});
    ASSERT_EQ(viaWorkspace.status, cold.status) << "workers=" << workers;
    EXPECT_NEAR(viaWorkspace.objective, cold.objective, 1e-9) << "workers=" << workers;
    // Worker 0 searched in the caller's workspace: its basis is warm now.
    EXPECT_TRUE(workspace.warmReady()) << "workers=" << workers;
  }
}

TEST(MipEngine, FreeIntegerVariableIsRejected) {
  // The standard form is fixed by the root bounds, so a free integer
  // variable could never be branched: rejected up front, at every worker
  // count.
  lp::Model model;
  const int x = model.addVariable(-lp::kInfinity, lp::kInfinity, 1.0,
                                  lp::VarType::Integer);
  const lp::Term term[1] = {{x, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 0.5, term);

  for (const int workers : kWorkerCounts) {
    lp::MipOptions options;
    options.workers = workers;
    EXPECT_THROW((void)lp::solveMip(model, options), PreconditionError)
        << "workers=" << workers;
  }
}

// keepZeroRateClients + elasticCapacity must not change the optimum.
TEST(Formulation, PatchableVariantPreservesOptimum) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const ProblemInstance instance = smallHomogeneous(seed);
    FormulationOptions patchable;
    patchable.enforceBandwidth = false;
    patchable.keepZeroRateClients = true;
    patchable.elasticCapacity = true;
    IlpFormulation warm(instance, Policy::Multiple, patchable);
    FormulationOptions classic;
    classic.enforceBandwidth = false;
    IlpFormulation cold(instance, Policy::Multiple, classic);

    const lp::MipResult warmResult = lp::solveMip(warm.model());
    const lp::MipResult coldResult = lp::solveMip(cold.model());
    ASSERT_EQ(warmResult.status, coldResult.status) << "seed=" << seed;
    if (warmResult.status != lp::SolveStatus::Optimal) continue;
    EXPECT_NEAR(warmResult.objective, coldResult.objective, 1e-6)
        << "seed=" << seed;
    const Placement decoded = warm.decode(warmResult.values);
    EXPECT_TRUE(testutil::placementValid(instance, decoded, Policy::Multiple))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace treeplace
