// The deadline/cancellation contract of the resilient pipeline: at EVERY
// possible interruption point (step budgets k = 1..N, cancel tokens, wall
// deadlines) the pipeline must return a structured SolveOutcome whose
// placement — when present — validates, and whose certified bracket contains
// the true optimum. "A budget trip costs optimality or latency, never
// correctness."

#include "online/resilient.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/exact_ilp.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "experiments/mutation_driver.hpp"
#include "support/budget.hpp"
#include "support/fault_injection.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance smallHomogeneous(std::uint64_t seed, double qosFraction = 0.0,
                                 int minSize = 8, int maxSize = 24) {
  GeneratorConfig config;
  config.minSize = minSize;
  config.maxSize = maxSize;
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

Policy corePolicy(OnlinePolicy policy) {
  return policy == OnlinePolicy::Multiple ? Policy::Multiple : Policy::Closest;
}

ValidationOptions valOpts(OnlinePolicy policy) {
  ValidationOptions vo;
  vo.checkQos = policy == OnlinePolicy::ClosestQos;
  vo.checkBandwidth = false;
  return vo;
}

/// The full outcome contract against an (unbudgeted) scratch solve.
void expectOutcomeSound(const SolveOutcome& out, const ProblemInstance& instance,
                        OnlinePolicy policy,
                        const std::optional<Placement>& truth,
                        const std::string& context) {
  if (out.hasPlacement()) {
    EXPECT_TRUE(isValidPlacement(instance, *out.placement, corePolicy(policy),
                                 valOpts(policy)))
        << context << ": " << toString(out.status) << "/" << toString(out.level)
        << " returned an invalid placement";
    EXPECT_LE(out.lowerBound, out.cost + 1e-9) << context << ": inverted bracket";
  }
  if (out.status == OutcomeStatus::Optimal) {
    ASSERT_TRUE(out.hasPlacement()) << context;
    ASSERT_TRUE(truth.has_value()) << context << ": Optimal on infeasible instance";
    EXPECT_EQ(out.placement->replicaCount(), truth->replicaCount()) << context;
    EXPECT_DOUBLE_EQ(out.lowerBound, out.cost) << context;
  }
  if (out.status == OutcomeStatus::Infeasible) {
    EXPECT_FALSE(truth.has_value())
        << context << ": claimed Infeasible but scratch found a placement";
  }
  if (out.bracketed() && truth.has_value()) {
    const auto opt = static_cast<double>(truth->replicaCount());
    EXPECT_GE(opt, out.lowerBound - 1e-9)
        << context << ": certified floor above the optimum";
    EXPECT_LE(opt, out.cost + 1e-9) << context;
  }
}

class ResilienceByPolicy : public ::testing::TestWithParam<OnlinePolicy> {};

// Unlimited budget: the resilient wrapper is the exact solver.
TEST_P(ResilienceByPolicy, UnlimitedBudgetIsExact) {
  const OnlinePolicy policy = GetParam();
  const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ProblemInstance instance = smallHomogeneous(seed, qosFraction);
    const std::optional<Placement> truth = scratch(instance, policy);
    const SolveOutcome out = solveResilient(instance, policy, SolveBudget{});
    if (truth) {
      ASSERT_EQ(out.status, OutcomeStatus::Optimal) << "seed=" << seed;
    } else {
      ASSERT_EQ(out.status, OutcomeStatus::Infeasible) << "seed=" << seed;
    }
    expectOutcomeSound(out, instance, policy, truth,
                       "seed=" + std::to_string(seed));
  }
}

// The satellite: cancellation at EVERY step. Measure the unlimited solve's
// step count N, then re-run with maxSteps = k for every k in 1..N and demand
// a sound outcome at each truncation point.
TEST_P(ResilienceByPolicy, TruncationAtEveryStepIsSound) {
  const OnlinePolicy policy = GetParam();
  const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
  long truncationsTried = 0;
  // Seeds 1-6 always run. Infeasible seeds end their solve early and offer
  // few truncation points, so keep drawing seeds until the sweep has covered
  // 100 of them (bounded).
  for (std::uint64_t seed = 1; seed <= 6 || (truncationsTried < 100 && seed <= 64);
       ++seed) {
    const ProblemInstance instance = smallHomogeneous(seed, qosFraction);
    const std::optional<Placement> truth = scratch(instance, policy);
    SolveBudget counting;  // huge but *limited*, so the guard counts steps
    counting.maxSteps = 100000000;
    const SolveOutcome full = solveResilient(instance, policy, counting);
    const long n = full.steps > 0 ? full.steps : 64;
    for (long k = 1; k <= n; ++k) {
      SolveBudget budget;
      budget.maxSteps = k;
      const SolveOutcome out = solveResilient(instance, policy, budget);
      expectOutcomeSound(out, instance, policy, truth,
                         "seed=" + std::to_string(seed) + " k=" + std::to_string(k));
      ++truncationsTried;
    }
  }
  EXPECT_GE(truncationsTried, 100);
}

// A pre-fired cancel token: structured Cancelled, no placement, no claims.
TEST_P(ResilienceByPolicy, CancelledBeforeStart) {
  const OnlinePolicy policy = GetParam();
  const ProblemInstance instance = smallHomogeneous(
      3, policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0);
  CancelToken token;
  token.cancel();
  SolveBudget budget;
  budget.cancel = &token;
  const SolveOutcome out = solveResilient(instance, policy, budget);
  EXPECT_EQ(out.status, OutcomeStatus::Cancelled);
  EXPECT_EQ(out.budget, BudgetVerdict::Cancelled);
  EXPECT_FALSE(out.hasPlacement());
}

// A long-lived session under mutations, served with a rotating mix of
// unlimited / tiny / cancelled budgets. Every outcome sound; unlimited ones
// exact.
TEST_P(ResilienceByPolicy, SessionUnderMutationsAndBudgets) {
  const OnlinePolicy policy = GetParam();
  const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ProblemInstance instance = smallHomogeneous(seed, qosFraction, 10, 30);
    ResilientSession session(instance, policy);
    MutationWorkloadConfig mc;
    mc.policy = policy;
    mc.seed = seed * 101;
    Prng rng(seed * 7 + 1);
    for (int step = 0; step < 12; ++step) {
      session.apply(drawMutation(instance, mc, rng));
      SolveBudget budget;
      CancelToken token;
      const int mode = step % 3;
      if (mode == 1) budget.maxSteps = 1 + step * 3;
      if (mode == 2 && step % 6 == 5) {
        token.cancel();
        budget.cancel = &token;
      }
      const SolveOutcome out = session.solve(budget);
      const std::optional<Placement> truth = scratch(instance, policy);
      const std::string ctx = "seed=" + std::to_string(seed) +
                              " step=" + std::to_string(step);
      if (mode == 0) {
        // Unlimited: must be exact (or proven infeasible).
        EXPECT_TRUE(out.status == OutcomeStatus::Optimal ||
                    out.status == OutcomeStatus::Infeasible)
            << ctx << ": " << toString(out.status);
      }
      expectOutcomeSound(out, instance, policy, truth, ctx);
      if (out.hasPlacement()) {
        ASSERT_TRUE(session.lastKnownGood() != nullptr) << ctx;
      }
    }
  }
}

// The session keeps and returns the solver's snapshots without copying them:
// lastKnownGood() is the very placement the last good rung answered with, a
// cancelled solve leaves it untouched, and snapshots a caller keeps stay
// equal to deep copies taken on receipt across 300 later steps, allocation
// faults (arena growth failing, scratch fallbacks) included.
TEST_P(ResilienceByPolicy, SessionSharesImmutableSnapshots) {
  const OnlinePolicy policy = GetParam();
  const double qosFraction = policy == OnlinePolicy::ClosestQos ? 0.6 : 0.0;
  std::uint64_t seed = 1;
  while (!scratch(smallHomogeneous(seed, qosFraction, 10, 30), policy)) ++seed;
  ProblemInstance instance = smallHomogeneous(seed, qosFraction, 10, 30);
  ResilientSession session(instance, policy);

  const SolveOutcome first = session.solve(SolveBudget{});
  ASSERT_TRUE(first.hasPlacement());
  EXPECT_EQ(session.lastKnownGood().get(), first.placement.get());
  EXPECT_EQ(session.solve(SolveBudget{}).placement.get(), first.placement.get());
  const Placement deep = *first.placement;

  MutationWorkloadConfig mc;
  mc.policy = policy;
  mc.rateCap = 0.1;
  Prng rng(seed * 13 + 5);
  session.apply(drawMutation(instance, mc, rng));
  CancelToken token;
  token.cancel();
  SolveBudget cancelled;
  cancelled.cancel = &token;
  EXPECT_EQ(session.solve(cancelled).status, OutcomeStatus::Cancelled);
  EXPECT_EQ(session.lastKnownGood().get(), first.placement.get());

  std::vector<std::pair<std::shared_ptr<const Placement>, Placement>> held;
  held.emplace_back(first.placement, deep);
  for (int step = 0; step < 300; ++step) {
    session.apply(drawMutation(instance, mc, rng));
    SolveOutcome out;
    {
      fault::Plan plan;
      plan.seed = seed + static_cast<std::uint64_t>(step);
      plan.armSite(fault::Site::Allocation, 3);
      fault::ScopedPlan armed(plan);
      out = session.solve(SolveBudget{});
    }
    const std::string ctx = "step=" + std::to_string(step);
    expectOutcomeSound(out, instance, policy, scratch(instance, policy), ctx);
    if (!out.hasPlacement()) continue;
    EXPECT_EQ(session.lastKnownGood().get(), out.placement.get()) << ctx;
    if (step % 3 == 0) held.emplace_back(out.placement, *out.placement);
  }
  ASSERT_GE(held.size(), 20u);
  // Faults fire only where an arena grows: often enough on Multiple's
  // candidate prune to reach the scratch fallback, rarely on the others.
  if (policy == OnlinePolicy::Multiple) {
    EXPECT_GT(session.cacheStats().scratchFallbacks, 0u);
  }
  for (std::size_t k = 0; k < held.size(); ++k)
    EXPECT_EQ(*held[k].first, held[k].second) << "held #" << k;
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ResilienceByPolicy,
                         ::testing::Values(OnlinePolicy::Closest,
                                           OnlinePolicy::Multiple,
                                           OnlinePolicy::ClosestQos));

// Wall-clock deadlines are honored with bounded overshoot even on instances
// far too large to solve exactly in the allotted time. The bound here is
// deliberately loose (CI machines stall); the bench reports the tight number.
TEST(Resilience, DeadlineHonoredOnLargeInstance) {
  GeneratorConfig config;
  config.minSize = 60000;
  config.maxSize = 60000;
  config.unitCosts = true;
  config.lambda = 0.55;
  Prng rng(11);
  const ProblemInstance instance = generateInstance(config, rng);
  SolveBudget budget;
  budget.wallMs = 20.0;
  const SolveOutcome out =
      solveResilient(instance, OnlinePolicy::Multiple, budget);
  EXPECT_LT(out.elapsedMs, 2000.0) << toString(out.status);
  expectOutcomeSound(out, instance, OnlinePolicy::Multiple, std::nullopt,
                     "deadline");
  // On a 20 ms budget the exact rung cannot finish 60k vertices, so a
  // degraded rung must have answered — with SOME placement or a structured
  // non-claim, but never a bogus Optimal... unless the machine is absurdly
  // fast, in which case Optimal is legitimately exact. Either way the
  // outcome soundness above is the real assertion.
  SUCCEED();
}

// The degraded Multiple rung runs the three-pass solver under the rung's
// share of the step budget (one step per pass-2 rescan). Deterministic, so
// no wall clock: a share below the rescan count stops the rung with no
// placement; a share that covers it answers with a validated one. Either
// way the whole pipeline stays within its steps and its outcome is sound.
TEST(Resilience, DegradedMultipleRungHonorsStepBudget) {
  GeneratorConfig config;
  config.minSize = config.maxSize = 4000;
  config.unitCosts = true;
  config.lambda = 0.3;
  Prng rng(11);
  const ProblemInstance instance = generateInstance(config, rng);
  const std::optional<Placement> truth = scratch(instance, OnlinePolicy::Multiple);
  ASSERT_TRUE(truth.has_value());
  SolveBudget counting;
  counting.maxSteps = 1L << 40;
  BudgetGuard counter(counting);
  ASSERT_TRUE(solveMultipleHomogeneous(instance, nullptr, &counter).has_value());
  const long rescans = counter.stepsUsed();
  // Budgets whose exact share (60%) trips long before the DP's one step per
  // vertex runs out.
  ASSERT_LT(3 * rescans, static_cast<long>(instance.tree.vertexCount()));
  const double rungShare = 1.0 - kExactFraction;

  SolveBudget tight;
  tight.maxSteps = rescans;
  ASSERT_LT(static_cast<double>(tight.maxSteps) * rungShare, static_cast<double>(rescans));
  const SolveOutcome stopped = solveResilient(instance, OnlinePolicy::Multiple, tight);
  EXPECT_FALSE(stopped.hasPlacement()) << toString(stopped.status);
  EXPECT_NE(stopped.status, OutcomeStatus::Infeasible);
  EXPECT_LE(stopped.steps, tight.maxSteps + 2);
  expectOutcomeSound(stopped, instance, OnlinePolicy::Multiple, truth, "tight");

  SolveBudget roomy;
  roomy.maxSteps = 3 * rescans;
  ASSERT_GE(static_cast<double>(roomy.maxSteps) * rungShare, static_cast<double>(rescans + 1));
  const SolveOutcome degraded = solveResilient(instance, OnlinePolicy::Multiple, roomy);
  EXPECT_EQ(degraded.status, OutcomeStatus::FeasibleDegraded);
  EXPECT_EQ(degraded.level, DegradationLevel::StreamCapped);
  ASSERT_TRUE(degraded.hasPlacement());
  EXPECT_EQ(degraded.placement->replicaCount(), truth->replicaCount());
  EXPECT_LE(degraded.steps, roomy.maxSteps + 2);
  expectOutcomeSound(degraded, instance, OnlinePolicy::Multiple, truth, "roomy");
}

TEST(Resilience, InfeasibleInstanceIsProvenInfeasible) {
  // demand 5+5 = 10 > total capacity 2+2 = 4 (W = 2 homogeneous).
  const ProblemInstance instance = testutil::chainInstance(2, 2, {5, 5});
  const SolveOutcome out =
      solveResilient(instance, OnlinePolicy::Multiple, SolveBudget{});
  EXPECT_EQ(out.status, OutcomeStatus::Infeasible);
  EXPECT_FALSE(out.hasPlacement());
}

// The budgeted ILP wrapper: unlimited = proven optimal in storage-cost
// units; truncated = sound bracket from the B&B dual bound.
TEST(Resilience, IlpWrapperProvenAndTruncated) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const ProblemInstance instance = smallHomogeneous(seed, 0.0, 6, 12);
    const ExactIlpResult reference = solveExactViaIlp(instance, Policy::Multiple);
    const SolveOutcome full = solveResilientIlp(instance, Policy::Multiple,
                                                SolveBudget{});
    if (reference.feasible()) {
      ASSERT_EQ(full.status, OutcomeStatus::Optimal) << "seed=" << seed;
      EXPECT_NEAR(full.cost, reference.cost, 1e-6) << "seed=" << seed;
    } else {
      EXPECT_EQ(full.status, OutcomeStatus::Infeasible) << "seed=" << seed;
    }
    for (const long k : {1L, 5L, 25L, 200L}) {
      SolveBudget budget;
      budget.maxSteps = k;
      const SolveOutcome out =
          solveResilientIlp(instance, Policy::Multiple, budget);
      if (out.hasPlacement()) {
        EXPECT_TRUE(isValidPlacement(instance, *out.placement, Policy::Multiple))
            << "seed=" << seed << " k=" << k;
        EXPECT_LE(out.lowerBound, out.cost + 1e-9) << "seed=" << seed;
        if (reference.feasible() && out.bracketed()) {
          EXPECT_GE(reference.cost, out.lowerBound - 1e-6)
              << "seed=" << seed << " k=" << k;
          EXPECT_LE(reference.cost, out.cost + 1e-6)
              << "seed=" << seed << " k=" << k;
        }
      }
    }
  }
}

// Sticky verdicts: a guard that tripped keeps reporting the same verdict to
// every later safepoint, so outer layers observe the stop without plumbing.
TEST(Resilience, GuardVerdictIsSticky) {
  SolveBudget budget;
  budget.maxSteps = 10;
  BudgetGuard guard(budget);
  BudgetVerdict v = BudgetVerdict::Ok;
  for (int i = 0; i < 64; ++i) v = guard.tick();
  EXPECT_EQ(v, BudgetVerdict::StepLimit);
  EXPECT_EQ(guard.verdict(), BudgetVerdict::StepLimit);
  EXPECT_THROW(guard.checkpoint(), SolveInterrupted);
  CancelToken late;
  late.cancel();  // a later cancel cannot overwrite the first verdict
  EXPECT_EQ(guard.tick(), BudgetVerdict::StepLimit);
}

TEST(Resilience, MemoryBudgetTrips) {
  SolveBudget budget;
  budget.maxMemoryBytes = 1 << 20;
  BudgetGuard guard(budget);
  EXPECT_EQ(guard.noteMemory(1 << 19), BudgetVerdict::Ok);
  EXPECT_EQ(guard.noteMemory(1 << 21), BudgetVerdict::MemoryLimit);
  EXPECT_EQ(guard.verdict(), BudgetVerdict::MemoryLimit);
  EXPECT_EQ(guard.memoryPeak(), static_cast<std::size_t>(1) << 21);
}

}  // namespace
}  // namespace treeplace
