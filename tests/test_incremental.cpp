#include "online/incremental.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "core/bounds.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "experiments/mutation_driver.hpp"
#include "lp/branch_bound.hpp"
#include "online/delta.hpp"
#include "online/warm_ilp.hpp"
#include "support/prng.hpp"
#include "support/require.hpp"
#include "test_util.hpp"
#include "tree/builder.hpp"

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

// The cache layout is keyed by the TreeDecomposition bag schedule, a pure
// function of tree shape. Two solvers over the same shape — one on the
// original tree, one on a rebuild from its parent array — must resolve to
// bit-identical placements, both at the initial solve and after replaying
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
  const int x0 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer, "x0");
  const int x1 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer, "x1");
  const lp::Term terms[2] = {{x0, 1.0}, {x1, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 1.0, terms, "cover");

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
  const int x0 = model.addVariable(0.0, 1.0, 2.0, lp::VarType::Integer, "x0");
  const lp::Term term[1] = {{x0, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 1.0, term, "force");

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
  const int x0 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer, "x0");
  const int x1 = model.addVariable(0.0, 1.0, 1.0, lp::VarType::Integer, "x1");
  const lp::Term terms[2] = {{x0, 1.0}, {x1, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 1.0, terms, "cover");

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
    const int x = model.addVariable(0.0, 1.0, 3.0, lp::VarType::Integer, "x");
    const int y = model.addVariable(0.0, 4.0, 1.0, lp::VarType::Continuous, "y");
    const lp::Term cover[2] = {{x, 2.0}, {y, 1.0}};
    const int row = model.addConstraint(lp::Sense::GreaterEqual, 2.0, cover, "cover");

    lp::MipOptions warm;
    warm.workers = workers;
    lp::LpWorkspace workspace(model, warm.lp);
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
                                  lp::VarType::Integer, "x");
  const lp::Term term[1] = {{x, 1.0}};
  model.addConstraint(lp::Sense::GreaterEqual, 0.5, term, "floor");

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
