// The concurrent serving layer's contract: sessions are strands (one
// session's deltas apply in submission order, on one thread at a time) that
// share a pool, so interleaved delta streams on N sessions must produce, per
// session, outcomes bit-identical to that session's serial replay; the
// watchdog is an event-driven backstop that a completed solve wakes
// immediately (a sub-deadline solve returns in sub-deadline wall time); and
// the warm-ILP path seeds every re-solve from the previous placement.
// tests run under TSan in CI — keep all cross-thread state inside the
// service or per-index slots.

#include "online/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <optional>
#include <vector>

#include "exact/closest_homogeneous.hpp"
#include "exact/exact_ilp.hpp"
#include "experiments/mutation_driver.hpp"
#include "online/delta.hpp"
#include "online/resilient.hpp"
#include "support/prng.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance smallInstance(std::uint64_t seed, int minSize = 16,
                              int maxSize = 40, double qosFraction = 0.0) {
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

/// First seed at/after `seed` whose generated instance is Closest-feasible
/// (Closest-feasible implies feasible for every policy the tests use).
ProblemInstance feasibleInstance(std::uint64_t seed) {
  for (;; ++seed) {
    ProblemInstance instance = smallInstance(seed);
    if (solveClosestHomogeneous(instance)) return instance;
  }
}

/// Deterministic per-session workload: deltas are PRE-DRAWN against a shadow
/// copy that mutates in lockstep, so the sequence a session receives does not
/// depend on service-side timing.
std::vector<InstanceDelta> drawStream(const ProblemInstance& original,
                                      OnlinePolicy policy, std::uint64_t seed,
                                      int steps) {
  MutationWorkloadConfig config;
  config.policy = policy;
  config.seed = seed;
  config.structural = true;
  config.rateCap = 0.5;
  ProblemInstance shadow = original;
  Prng rng(seed);
  std::vector<InstanceDelta> stream;
  stream.reserve(static_cast<std::size_t>(steps));
  for (int k = 0; k < steps; ++k) {
    InstanceDelta delta = drawMutation(shadow, config, rng);
    applyDelta(shadow, delta);
    stream.push_back(std::move(delta));
  }
  return stream;
}

/// Pure step budget: deterministic rung selection, so outcomes are
/// replayable bit-for-bit (a wall-clock budget would make the chosen rung —
/// and thus the placement — timing-dependent).
SolveBudget stepBudget(long steps = 2'000'000) {
  SolveBudget budget;
  budget.maxSteps = steps;
  return budget;
}

struct ReplayStep {
  SolveOutcome outcome;
};

/// The single-threaded oracle: one fresh ResilientSession over the same
/// instance, same deltas in order, same budgets.
std::vector<ReplayStep> serialReplay(const ProblemInstance& original,
                                     OnlinePolicy policy,
                                     const std::vector<InstanceDelta>& stream,
                                     const SolveBudget& budget) {
  ProblemInstance instance = original;
  ResilientSession session(instance, policy);
  std::vector<ReplayStep> steps;
  steps.reserve(stream.size());
  for (const InstanceDelta& delta : stream) {
    session.apply(delta);
    steps.push_back({session.solve(budget)});
  }
  return steps;
}

void expectSameOutcome(const SolveOutcome& got, const SolveOutcome& want,
                       const char* where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.level, want.level) << where;
  EXPECT_EQ(got.hasPlacement(), want.hasPlacement()) << where;
  if (got.hasPlacement() && want.hasPlacement()) {
    EXPECT_EQ(got.cost, want.cost) << where;
    EXPECT_TRUE(*got.placement == *want.placement)
        << where << ": placement differs from serial replay";
  }
}

TEST(PlacementService, SingleSessionServedInSubmissionOrder) {
  const ProblemInstance original = smallInstance(101);
  const auto stream = drawStream(original, OnlinePolicy::Closest, 7, 10);
  const SolveBudget budget = stepBudget();
  const auto expected = serialReplay(original, OnlinePolicy::Closest, stream, budget);

  PlacementService service({.workers = 2});
  const auto id = service.openSession(original, OnlinePolicy::Closest);
  std::vector<std::future<ServiceResponse>> futures;
  for (const InstanceDelta& delta : stream) {
    ServiceRequest request;
    request.delta = delta;
    request.budget = budget;
    futures.push_back(service.submit(id, request));
  }
  for (std::size_t k = 0; k < futures.size(); ++k) {
    ServiceResponse response = futures[k].get();
    EXPECT_EQ(response.deltaStatus, DeltaStatus::Applied) << "step " << k;
    expectSameOutcome(response.outcome, expected[k].outcome, "single session");
  }
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, stream.size());
  EXPECT_EQ(stats.deltasApplied, stream.size());
}

// The tentpole isolation property (runs under TSan in CI): N sessions with
// interleaved submissions — randomized interleavings across rounds — produce,
// per session, exactly the serial replay of that session alone.
TEST(PlacementService, InterleavedSessionsMatchSerialReplayBitIdentically) {
  constexpr int kSessions = 4;
  constexpr int kSteps = 8;
  const OnlinePolicy policies[kSessions] = {
      OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos,
      OnlinePolicy::Multiple};
  const SolveBudget budget = stepBudget();

  for (std::uint64_t round = 0; round < 3; ++round) {
    std::vector<ProblemInstance> originals;
    std::vector<std::vector<InstanceDelta>> streams;
    std::vector<std::vector<ReplayStep>> expected;
    for (int s = 0; s < kSessions; ++s) {
      originals.push_back(smallInstance(200 + 17 * round + s,
                                        16, 40,
                                        policies[s] == OnlinePolicy::ClosestQos
                                            ? 0.5
                                            : 0.0));
      streams.push_back(drawStream(originals.back(), policies[s],
                                   900 + 31 * round + s, kSteps));
      expected.push_back(
          serialReplay(originals.back(), policies[s], streams.back(), budget));
    }

    PlacementService service({.workers = 4});
    std::vector<PlacementService::SessionId> ids;
    for (int s = 0; s < kSessions; ++s)
      ids.push_back(service.openSession(originals[s], policies[s]));

    // Randomized interleaving: a shuffled flat schedule of (session, step)
    // pairs, submission order within a session preserved by construction.
    std::vector<int> schedule;
    for (int s = 0; s < kSessions; ++s)
      for (int k = 0; k < kSteps; ++k) schedule.push_back(s);
    Prng rng(555 + round);
    for (std::size_t i = schedule.size(); i > 1; --i)
      std::swap(schedule[i - 1],
                schedule[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<std::int64_t>(i) - 1))]);

    std::vector<std::vector<std::future<ServiceResponse>>> futures(kSessions);
    std::vector<std::size_t> cursor(kSessions, 0);
    for (const int s : schedule) {
      ServiceRequest request;
      request.delta = streams[s][cursor[s]++];
      request.budget = budget;
      futures[s].push_back(service.submit(ids[s], request));
    }

    for (int s = 0; s < kSessions; ++s) {
      for (int k = 0; k < kSteps; ++k) {
        ServiceResponse response = futures[s][static_cast<std::size_t>(k)].get();
        EXPECT_EQ(response.deltaStatus, DeltaStatus::Applied)
            << "round " << round << " session " << s << " step " << k;
        expectSameOutcome(response.outcome,
                          expected[s][static_cast<std::size_t>(k)].outcome,
                          "interleaved session");
      }
    }
    service.drain();
  }
}

// A response's placement is the session's immutable snapshot, shared rather
// than copied. The client reads each one while the worker keeps serving the
// stream, and drops most of them: the solver then repairs those buffers in
// place. That hand-back must be race-free (TSan), and the snapshots the
// client keeps must never change.
TEST(PlacementService, ResponsePlacementsStayIntactWhileServingContinues) {
  const ProblemInstance original = feasibleInstance(31);
  for (const OnlinePolicy policy :
       {OnlinePolicy::Closest, OnlinePolicy::Multiple, OnlinePolicy::ClosestQos}) {
    const auto stream = drawStream(original, policy, 61, 120);
    const SolveBudget budget = stepBudget();
    const auto expected = serialReplay(original, policy, stream, budget);

    PlacementService service({.workers = 2});
    const auto id = service.openSession(original, policy);
    std::vector<std::future<ServiceResponse>> futures;
    for (const InstanceDelta& delta : stream) {
      ServiceRequest request;
      request.delta = delta;
      request.budget = budget;
      futures.push_back(service.submit(id, request));
    }
    std::vector<std::pair<std::shared_ptr<const Placement>, Placement>> kept;
    for (std::size_t k = 0; k < futures.size(); ++k) {
      const ServiceResponse response = futures[k].get();
      expectSameOutcome(response.outcome, expected[k].outcome, "snapshot stream");
      if (k % 3 == 0 && response.outcome.hasPlacement())
        kept.emplace_back(response.outcome.placement, *response.outcome.placement);
    }
    service.drain();
    ASSERT_FALSE(kept.empty()) << toString(policy);
    for (std::size_t k = 0; k < kept.size(); ++k)
      EXPECT_EQ(*kept[k].first, kept[k].second) << toString(policy) << " kept #" << k;
  }
}

// Satellite regression: a sub-deadline solve must return in sub-deadline
// wall time. The retired watchdog slept out its entire window per request —
// a 2 s deadline meant ~8 s of wall per request even when the solve took
// microseconds. The event-driven watchdog is woken by completion instead.
TEST(PlacementService, SubDeadlineSolveReturnsInSubDeadlineWallTime) {
  const ProblemInstance original = feasibleInstance(42);
  PlacementService service({.workers = 1});
  const auto id = service.openSession(original, OnlinePolicy::Closest);

  constexpr double kDeadlineMs = 2000.0;
  const auto t0 = std::chrono::steady_clock::now();
  ServiceRequest request;
  request.budget = stepBudget();
  request.deadlineMs = kDeadlineMs;
  ServiceResponse response = service.submit(id, request).get();
  const double wallMs = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
  EXPECT_TRUE(response.outcome.hasPlacement())
      << toString(response.outcome.status) << ": " << response.outcome.message;
  EXPECT_FALSE(response.watchdogFired);
  // A tiny instance solves in well under a second; the old polling watchdog
  // would have held this at >= deadline * watchdogMult.
  EXPECT_LT(wallMs, kDeadlineMs / 2) << "completed solve did not wake the watchdog";
}

// The backstop itself: a solve whose own wall budget is huge gets cancelled
// by the watchdog at deadline * mult. The solve is slow by construction
// against that window: uncancelled, the cold ClosestQos solve of this
// 60,000-vertex instance took 14.7 ms at the fastest of 30 runs (median
// 25 ms) on a 4-core x86-64 host, over 14x the 1 ms watchdog, so the token
// must fire.
TEST(PlacementService, WatchdogCancelsOverdueSolve) {
  GeneratorConfig config;
  config.minSize = 60000;
  config.maxSize = 60000;
  config.clientFraction = 0.55;
  config.maxRequests = 8;
  config.lambda = 0.55;
  config.unitCosts = true;
  config.qosFraction = 0.6;
  Prng rng(7);
  const ProblemInstance big = generateInstance(config, rng);

  ServiceOptions options;
  options.workers = 1;
  options.watchdogMult = 2.0;
  PlacementService service(options);
  const auto id = service.openSession(big, OnlinePolicy::ClosestQos);

  ServiceRequest request;
  request.budget.wallMs = 60000.0;  // the solver's own deadline never trips
  request.deadlineMs = 0.5;         // the watchdog fires at ~1 ms
  ServiceResponse response = service.submit(id, request).get();
  EXPECT_TRUE(response.watchdogFired);
  EXPECT_GE(service.stats().watchdogFires, 1u);
  // Cancellation costs optimality, never correctness: no placement, or a
  // validated degraded one — either way a structured outcome.
  if (!response.outcome.hasPlacement()) {
    EXPECT_TRUE(response.outcome.status == OutcomeStatus::Cancelled ||
                response.outcome.status == OutcomeStatus::Error);
  }
}

TEST(PlacementService, RejectedDeltaLeavesSessionIntact) {
  const ProblemInstance original = smallInstance(77);
  PlacementService service({.workers = 2});
  const auto id = service.openSession(original, OnlinePolicy::Multiple);

  InstanceDelta bad;
  bad.kind = DeltaKind::RateChange;
  bad.node = static_cast<VertexId>(original.tree.vertexCount() + 500);
  bad.rate = 3;
  ServiceRequest badRequest;
  badRequest.delta = bad;
  badRequest.budget = stepBudget();
  ServiceResponse response = service.submit(id, badRequest).get();
  EXPECT_EQ(response.deltaStatus, DeltaStatus::Rejected);
  EXPECT_FALSE(response.deltaMessage.empty());

  // The rejected delta must not have perturbed the session: a plain solve
  // equals the untouched instance's serial solve.
  ProblemInstance copy = original;
  ResilientSession oracle(copy, OnlinePolicy::Multiple);
  const SolveOutcome want = oracle.solve(stepBudget());
  ServiceRequest plain;
  plain.budget = stepBudget();
  ServiceResponse after = service.submit(id, plain).get();
  expectSameOutcome(after.outcome, want, "post-rejection solve");
  EXPECT_EQ(service.stats().deltasRejected, 1u);
}

TEST(PlacementService, CertifiedFloorBracketsTheCost) {
  const ProblemInstance original = smallInstance(31);
  PlacementService service({.workers = 2});
  const auto id = service.openSession(original, OnlinePolicy::Multiple);

  ServiceRequest request;
  request.budget = stepBudget();
  request.certifyFloor = true;
  request.floorNodes = 40;
  ServiceResponse response = service.submit(id, request).get();
  ASSERT_TRUE(response.outcome.hasPlacement());
  ASSERT_TRUE(response.floorCertified);
  // Unit costs: the refined bound is a replica-count floor below the
  // session's replica-count optimum.
  EXPECT_LE(response.certifiedFloor, response.outcome.cost + 1e-9);
  EXPECT_GT(response.certifiedFloor, 0.0);
  EXPECT_GE(service.stats().arenaSets, 1u);
}

// Warm-ILP sessions: every re-solve is seeded from the previous placement
// and still lands on the cold solver's proven optimum.
TEST(PlacementService, IlpSessionSeedsIncumbentAndMatchesColdOptimum) {
  const ProblemInstance original = smallInstance(13, 14, 24);
  const auto stream = drawStream(original, OnlinePolicy::Multiple, 99, 5);

  PlacementService service({.workers = 2});
  const auto id = service.openIlpSession(original);

  // Cold oracle: fresh formulation + fresh search per step on a shadow copy.
  ProblemInstance shadow = original;
  long coldNodes = 0;
  std::vector<double> coldCosts;
  {
    ServiceRequest first;  // settle the warm session on the initial state
    ServiceResponse r0 = service.submit(id, first).get();
    ASSERT_TRUE(r0.outcome.hasPlacement());
    const ExactIlpResult cold0 = solveExactViaIlp(shadow, Policy::Multiple, {});
    ASSERT_TRUE(cold0.feasible());
    EXPECT_DOUBLE_EQ(r0.outcome.cost, cold0.cost);
  }

  std::size_t seeded = 0;
  long warmNodes = 0;
  for (std::size_t k = 0; k < stream.size(); ++k) {
    applyDelta(shadow, stream[k]);
    ServiceRequest request;
    request.delta = stream[k];
    ServiceResponse response = service.submit(id, request).get();
    EXPECT_EQ(response.deltaStatus, DeltaStatus::Applied) << "step " << k;

    const ExactIlpResult cold = solveExactViaIlp(shadow, Policy::Multiple, {});
    EXPECT_EQ(response.outcome.hasPlacement(), cold.feasible()) << "step " << k;
    if (response.outcome.hasPlacement() && cold.feasible()) {
      EXPECT_EQ(response.outcome.status, OutcomeStatus::Optimal) << "step " << k;
      EXPECT_DOUBLE_EQ(response.outcome.cost, cold.cost) << "step " << k;
    }
    if (response.ilpSeeded) ++seeded;
    if (response.ilpNodes > 0) warmNodes += response.ilpNodes;
    coldNodes += cold.nodesExplored;
  }
  service.drain();
  EXPECT_GT(seeded, 0u) << "no re-solve started from a repaired incumbent";
  EXPECT_LE(warmNodes, coldNodes)
      << "warm-seeded searches explored more nodes than cold ones";
  EXPECT_EQ(service.ilpStats(id).seededSolves, seeded);
}

TEST(PlacementService, LifecycleCloseAndUnknownIds) {
  const ProblemInstance original = feasibleInstance(5);
  PlacementService service({.workers = 2});
  const auto id = service.openSession(original, OnlinePolicy::Closest);
  ServiceRequest request;
  request.budget = stepBudget();
  ServiceResponse response = service.submit(id, request).get();
  EXPECT_TRUE(response.outcome.hasPlacement());

  service.closeSession(id);
  EXPECT_THROW((void)service.submit(id, request), std::out_of_range);
  EXPECT_THROW((void)service.submit(id + 999, request), std::out_of_range);
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessionsOpened, 1u);
  EXPECT_EQ(stats.sessionsClosed, 1u);
}

// The service also runs on an external shared pool — the cross-session arena
// slots are keyed by (pool, worker), so a foreign pool's workers must not
// alias them.
TEST(PlacementService, RunsOnExternalPool) {
  ThreadPool pool(2);
  const ProblemInstance original = smallInstance(64);
  const auto stream = drawStream(original, OnlinePolicy::Closest, 3, 4);
  const SolveBudget budget = stepBudget();
  const auto expected =
      serialReplay(original, OnlinePolicy::Closest, stream, budget);

  ServiceOptions options;
  options.pool = &pool;
  PlacementService service(options);
  const auto id = service.openSession(original, OnlinePolicy::Closest);
  std::vector<std::future<ServiceResponse>> futures;
  for (const InstanceDelta& delta : stream) {
    ServiceRequest request;
    request.delta = delta;
    request.budget = budget;
    futures.push_back(service.submit(id, request));
  }
  for (std::size_t k = 0; k < futures.size(); ++k)
    expectSameOutcome(futures[k].get().outcome, expected[k].outcome,
                      "external pool");
  service.drain();
}

}  // namespace
}  // namespace treeplace
