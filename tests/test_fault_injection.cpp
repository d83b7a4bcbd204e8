// The deterministic fault harness and the invariant it exists to prove:
// across hundreds of seeded injected faults (allocation failures, worker
// stalls, simplex pivot failures, malformed deltas, mid-solve cancels), the
// resilient pipeline never returns an incorrect placement — a fault costs
// optimality or latency, never correctness. Scratch verification always runs
// DISARMED, so the reference answers are fault-free.

#include "support/fault_injection.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <optional>
#include <string>
#include <vector>

#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "experiments/mutation_driver.hpp"
#include "online/resilient.hpp"
#include "support/prng.hpp"
#include "support/thread_pool.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance smallHomogeneous(std::uint64_t seed, int minSize = 10,
                                 int maxSize = 30) {
  GeneratorConfig config;
  config.minSize = minSize;
  config.maxSize = maxSize;
  config.clientFraction = 0.55;
  config.maxRequests = 8;
  config.lambda = 0.55;
  config.unitCosts = true;
  Prng rng(seed);
  return generateInstance(config, rng);
}

std::optional<Placement> scratch(const ProblemInstance& instance,
                                 OnlinePolicy policy) {
  return policy == OnlinePolicy::Closest ? solveClosestHomogeneous(instance)
                                         : solveMultipleHomogeneousDP(instance);
}

fault::Plan allSitesPlan(std::uint64_t seed, std::uint64_t period) {
  fault::Plan plan;
  plan.seed = seed;
  plan.armSite(fault::Site::Allocation, period);
  plan.armSite(fault::Site::WorkerStall, period);
  plan.armSite(fault::Site::SimplexPivot, period);
  plan.armSite(fault::Site::MalformedDelta, period);
  plan.armSite(fault::Site::MidSolveCancel, period);
  return plan;
}

// ---------------------------------------------------------------------------
// Harness mechanics.
// ---------------------------------------------------------------------------

TEST(FaultHarness, QuietByDefault) {
  ASSERT_FALSE(fault::armed());
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fault::fire(fault::Site::Allocation));
}

TEST(FaultHarness, SameSeedSameFirePattern) {
  std::vector<char> first, second;
  {
    fault::ScopedPlan armed(allSitesPlan(42, 5));
    for (int i = 0; i < 200; ++i)
      first.push_back(fault::fire(fault::Site::Allocation) ? 1 : 0);
  }
  {
    fault::ScopedPlan armed(allSitesPlan(42, 5));
    for (int i = 0; i < 200; ++i)
      second.push_back(fault::fire(fault::Site::Allocation) ? 1 : 0);
  }
  EXPECT_EQ(first, second);
  long fires = 0;
  for (const char f : first) fires += f;
  EXPECT_GT(fires, 0);  // period 5 over 200 probes must fire
  EXPECT_LT(fires, 200);
}

TEST(FaultHarness, DifferentSeedsDiffer) {
  const auto pattern = [](std::uint64_t seed) {
    fault::ScopedPlan armed(allSitesPlan(seed, 3));
    std::vector<char> out;
    for (int i = 0; i < 300; ++i)
      out.push_back(fault::fire(fault::Site::MidSolveCancel) ? 1 : 0);
    return out;
  };
  EXPECT_NE(pattern(1), pattern(2));
}

TEST(FaultHarness, SitesAreIndependentStreams) {
  fault::ScopedPlan armed(allSitesPlan(7, 4));
  std::vector<char> alloc, pivot;
  for (int i = 0; i < 200; ++i) {
    alloc.push_back(fault::fire(fault::Site::Allocation) ? 1 : 0);
    pivot.push_back(fault::fire(fault::Site::SimplexPivot) ? 1 : 0);
  }
  EXPECT_NE(alloc, pivot);  // same rule, different site hash
  EXPECT_EQ(fault::probeCount(fault::Site::Allocation), 200);
  EXPECT_EQ(fault::probeCount(fault::Site::SimplexPivot), 200);
}

TEST(FaultHarness, MaxFiresCapsTheSite) {
  fault::Plan plan;
  plan.seed = 3;
  plan.armSite(fault::Site::Allocation, 1, 4);  // every probe, capped at 4
  fault::ScopedPlan armed(plan);
  long fires = 0;
  for (int i = 0; i < 100; ++i)
    if (fault::fire(fault::Site::Allocation)) ++fires;
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(fault::fireCount(fault::Site::Allocation), 4);
}

TEST(FaultHarness, DisarmRestoresQuiet) {
  {
    fault::Plan plan;
    plan.seed = 9;
    plan.armSite(fault::Site::WorkerStall, 1);
    fault::ScopedPlan armed(plan);
    EXPECT_TRUE(fault::armed());
  }
  EXPECT_FALSE(fault::armed());
  EXPECT_FALSE(fault::fire(fault::Site::WorkerStall));
}

TEST(FaultHarness, SiteNames) {
  for (std::size_t s = 0; s < fault::kSiteCount; ++s)
    EXPECT_FALSE(toString(static_cast<fault::Site>(s)).empty());
}

// ---------------------------------------------------------------------------
// Single-site behaviors.
// ---------------------------------------------------------------------------

// Every slab growth throwing bad_alloc must not crash the pipeline or yield
// an invalid placement — the greedy rung has no slabs and still answers.
TEST(FaultSites, AllocationStormNeverBreaksCorrectness) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const ProblemInstance instance = smallHomogeneous(seed);
    const std::optional<Placement> truth = scratch(instance, OnlinePolicy::Multiple);
    SolveOutcome out;
    {
      fault::Plan plan;
      plan.seed = seed;
      plan.armSite(fault::Site::Allocation, 1);  // every slab growth fails
      fault::ScopedPlan armed(plan);
      out = solveResilient(instance, OnlinePolicy::Multiple, SolveBudget{});
    }
    if (out.hasPlacement()) {
      EXPECT_TRUE(isValidPlacement(instance, *out.placement, Policy::Multiple))
          << "seed=" << seed;
      if (truth && out.bracketed()) {
        EXPECT_LE(out.lowerBound,
                  static_cast<double>(truth->replicaCount()) + 1e-9)
            << "seed=" << seed;
      }
    }
    if (out.status == OutcomeStatus::Infeasible) {
      EXPECT_FALSE(truth.has_value()) << "seed=" << seed;
    }
  }
}

// Pivot faults force warm-start fallbacks / iteration limits inside the LP —
// a latency-only fault: a PROVEN ILP answer must still be the true optimum.
TEST(FaultSites, SimplexPivotFaultIsLatencyOnly) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const ProblemInstance instance = smallHomogeneous(seed, 6, 12);
    const ExactIlpResult reference = solveExactViaIlp(instance, Policy::Multiple);
    ExactIlpResult faulted;
    {
      fault::Plan plan;
      plan.seed = seed * 13;
      plan.armSite(fault::Site::SimplexPivot, 3);
      fault::ScopedPlan armed(plan);
      faulted = solveExactViaIlp(instance, Policy::Multiple);
    }
    ASSERT_EQ(faulted.feasible(), reference.feasible()) << "seed=" << seed;
    if (faulted.proven && reference.proven && faulted.feasible()) {
      EXPECT_NEAR(faulted.cost, reference.cost, 1e-6) << "seed=" << seed;
    }
  }
}

// Worker stalls delay tasks but lose none, and exceptions thrown by stalled
// tasks still propagate.
TEST(FaultSites, WorkerStallLosesNoTasks) {
  fault::Plan plan;
  plan.seed = 5;
  plan.armSite(fault::Site::WorkerStall, 2);
  fault::ScopedPlan armed(plan);
  ThreadPool pool(3);
  std::atomic<long> ran{0};
  for (int i = 0; i < 200; ++i)
    EXPECT_TRUE(pool.submit([&] { ran.fetch_add(1); }));
  pool.waitIdle();
  EXPECT_EQ(ran.load(), 200);
  EXPECT_GT(fault::fireCount(fault::Site::WorkerStall), 0);
}

// MidSolveCancel trips budgeted guards only — an unbudgeted (unlimited)
// solve has no safepoint verdicts and must be untouched by the site.
TEST(FaultSites, MidSolveCancelOnlyAffectsBudgetedSolves) {
  const ProblemInstance instance = smallHomogeneous(4);
  const std::optional<Placement> truth = scratch(instance, OnlinePolicy::Multiple);
  fault::Plan plan;
  plan.seed = 21;
  plan.armSite(fault::Site::MidSolveCancel, 1);
  fault::ScopedPlan armed(plan);
  const std::optional<Placement> unbudgeted =
      solveMultipleHomogeneousDP(instance);
  EXPECT_EQ(unbudgeted.has_value(), truth.has_value());

  SolveBudget budget;
  budget.maxSteps = 100000000;  // limited, so the guard probes the site
  const SolveOutcome out =
      solveResilient(instance, OnlinePolicy::Multiple, budget);
  EXPECT_EQ(out.status, OutcomeStatus::Cancelled);  // period 1: trips at once
}

// ---------------------------------------------------------------------------
// The acceptance sweep: hundreds of seeded faults against live sessions,
// zero incorrect placements.
// ---------------------------------------------------------------------------

class FaultSweep : public ::testing::TestWithParam<OnlinePolicy> {};

TEST_P(FaultSweep, HundredsOfSeededFaultsZeroIncorrectPlacements) {
  const OnlinePolicy policy = GetParam();
  long totalFires = 0;
  long outcomes = 0;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    ProblemInstance instance = smallHomogeneous(seed, 24, 64);
    ResilientSession session(instance, policy);
    MutationWorkloadConfig mc;
    mc.policy = policy;
    mc.seed = seed * 977;
    Prng rng(seed * 31 + 7);
    for (int step = 0; step < 9; ++step) {
      // Rotate the fault mix so every rung gets exercised: chaos steps
      // cancel rung A almost immediately, allocation-storm steps kill the
      // exact rung but leave the degraded rungs to answer un-cancelled,
      // mild steps mostly let the exact rung win.
      fault::Plan plan;
      plan.seed = seed * 100 + static_cast<std::uint64_t>(step);
      switch (step % 3) {
        case 0: plan = allSitesPlan(plan.seed, 2); break;
        case 1:
          plan.armSite(fault::Site::Allocation, 1);
          plan.armSite(fault::Site::MalformedDelta, 1);
          plan.armSite(fault::Site::SimplexPivot, 1);
          break;
        default:
          plan.armSite(fault::Site::MidSolveCancel, 8);
          plan.armSite(fault::Site::WorkerStall, 2);
          plan.armSite(fault::Site::Allocation, 4);
          break;
      }
      SolveOutcome out;
      long rejected = 0;
      {
        fault::ScopedPlan armed(plan);
        InstanceDelta delta = drawMutation(instance, mc, rng);
        if (fault::fire(fault::Site::MalformedDelta)) {
          delta.kind = DeltaKind::RateChange;
          delta.node = static_cast<VertexId>(instance.tree.vertexCount()) + 3;
        }
        try {
          session.apply(delta);
        } catch (const DeltaError&) {
          ++rejected;  // bounced cleanly; the session keeps serving
        }
        SolveBudget budget;
        budget.maxSteps = 100000000;
        out = session.solve(budget);
        totalFires += fault::totalFires();
      }
      // Verification runs DISARMED against the mutated instance.
      const std::optional<Placement> truth = scratch(instance, policy);
      const std::string ctx = std::string(toString(policy)) + " seed=" +
                              std::to_string(seed) + " step=" + std::to_string(step);
      ++outcomes;
      if (out.hasPlacement()) {
        ValidationOptions vo;
        vo.checkBandwidth = false;
        EXPECT_TRUE(isValidPlacement(instance, *out.placement,
                                     policy == OnlinePolicy::Multiple
                                         ? Policy::Multiple
                                         : Policy::Closest,
                                     vo))
            << ctx << ": fault produced an INVALID placement ("
            << toString(out.status) << "/" << toString(out.level) << ")";
        EXPECT_LE(out.lowerBound, out.cost + 1e-9) << ctx;
      }
      if (out.status == OutcomeStatus::Optimal && truth) {
        EXPECT_EQ(out.placement->replicaCount(), truth->replicaCount()) << ctx;
      }
      if (out.status == OutcomeStatus::Optimal) {
        EXPECT_TRUE(truth.has_value()) << ctx;
      }
      if (out.status == OutcomeStatus::Infeasible) {
        EXPECT_FALSE(truth.has_value())
            << ctx << ": fault produced a FALSE infeasibility claim";
      }
      if (out.bracketed() && truth) {
        const auto opt = static_cast<double>(truth->replicaCount());
        EXPECT_GE(opt, out.lowerBound - 1e-9)
            << ctx << ": certified floor above the true optimum";
        EXPECT_LE(opt, out.cost + 1e-9) << ctx;
      }
      (void)rejected;
    }
  }
  EXPECT_GE(outcomes, 450);
  // The acceptance criterion counts injected faults, not just outcomes: the
  // sweep must actually have fired hundreds of them.
  EXPECT_GE(totalFires, 250) << "fault plan fired too rarely to prove anything"
                             << " (fires=" << totalFires << ")";
}

INSTANTIATE_TEST_SUITE_P(BothTwoDPolicies, FaultSweep,
                         ::testing::Values(OnlinePolicy::Closest,
                                           OnlinePolicy::Multiple));

}  // namespace
}  // namespace treeplace
