#pragma once

#include <cstdint>
#include <vector>

#include "online/delta.hpp"
#include "online/incremental.hpp"
#include "support/prng.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// One randomized mutation workload: a stream of InstanceDeltas replayed
/// against an IncrementalSolver, each step timed incremental-vs-scratch.
struct MutationWorkloadConfig {
  OnlinePolicy policy = OnlinePolicy::Multiple;
  int steps = 100;
  std::uint64_t seed = 1;

  /// Mixture weights of the delta kinds (normalized internally; a kind that
  /// is inadmissible in the current state falls back to RateChange).
  double rateWeight = 0.55;
  double leaveWeight = 0.10;
  double capacityWeight = 0.05;
  double joinWeight = 0.10;
  double attachWeight = 0.10;
  double detachWeight = 0.10;
  /// false zeroes the join/attach/detach weights — the tree never grows, so
  /// per-step latency isolates the value-delta path (the acceptance bench
  /// uses this for its single-client-mutation criterion).
  bool structural = true;

  /// Upper bound of a redrawn request rate, as a fraction of W: rate
  /// mutations draw uniformly in [0, max(1, rateCap * W)]. Full-W redraws
  /// (1.0) kill Closest streams almost immediately — one fat client under a
  /// crowded edge node pushes that subtree's demand past the capacity the
  /// policy cannot split, and the stream never recovers — so latency benches
  /// that want live streams across all policies use a small cap.
  double rateCap = 1.0;

  /// Re-solve from scratch (the exact solver the engine mirrors) after every
  /// step, timed, and compare cost and placement bit-for-bit. Off: only the
  /// incremental side is timed — for scales where s scratch solves per step
  /// would dominate the bench wall clock.
  bool verifyScratch = true;
};

struct MutationStepRecord {
  DeltaKind kind{};
  bool feasible = false;         ///< incremental verdict
  bool scratchFeasible = false;  ///< meaningful only when verifyScratch
  bool match = true;             ///< verdict+cost+placement equality
  double incrementalMs = 0.0;
  double scratchMs = 0.0;
  std::size_t replicas = 0;  ///< of the incremental placement (0 if infeasible)
};

struct MutationRunResult {
  std::vector<MutationStepRecord> steps;
  bool allMatch = true;  ///< every verified step matched scratch
  FrontierCacheStats cache;
  double p50IncrementalMs = 0.0;
  double p99IncrementalMs = 0.0;
  double p50ScratchMs = 0.0;
  double p99ScratchMs = 0.0;

  double speedupP50() const {
    return p50IncrementalMs > 0.0 ? p50ScratchMs / p50IncrementalMs : 0.0;
  }
  double speedupP99() const {
    return p99IncrementalMs > 0.0 ? p99ScratchMs / p99IncrementalMs : 0.0;
  }
};

/// Draw one admissible mutation for the instance's current state. Keeps the
/// instance inside the homogeneous solvers' domain: capacity changes are
/// global (one W) and attached pods inherit the current W and unit storage
/// cost. Feasibility is NOT preserved — an over-subscribed step must make
/// both solvers report infeasible, which the workload verifies like any
/// other step.
InstanceDelta drawMutation(const ProblemInstance& instance,
                           const MutationWorkloadConfig& config, Prng& rng);

/// Replay `config.steps` random mutations against an IncrementalSolver on
/// `instance` (mutated in place). The cache is warmed by one untimed resolve
/// first, so the per-step numbers measure steady-state re-solves.
MutationRunResult runMutationWorkload(ProblemInstance& instance,
                                      const MutationWorkloadConfig& config);

/// Share assigns per step of the same stream runMutationWorkload replays on
/// `instance` (a copy; the draws match when no fault plan is armed), read
/// off the published snapshots' Placement::stats().assignCalls. The replay
/// keeps the last two answers, so each step copies the published snapshot
/// into its back buffer and the count grows by that step's assignment
/// repair alone; a scratch fallback's rebuild counts whole. Untimed and
/// deterministic: the work bound the tests and the CI gate check.
double assignsPerStep(ProblemInstance instance, const MutationWorkloadConfig& config);

}  // namespace treeplace
