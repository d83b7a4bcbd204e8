#pragma once

#include <memory>
#include <optional>

#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "exact/exact_ilp.hpp"
#include "online/incremental.hpp"
#include "support/budget.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Tuning of the degradation ladder behind solveResilient/ResilientSession.
/// All costs/bounds on the homogeneous DP paths are in REPLICA COUNT units
/// (the counting objective those solvers minimise); the ILP entry point
/// reports storage-cost units instead.
struct ResilientOptions {
  /// Share of the wall/step budget granted to the exact rung; the remainder
  /// is reserved so the degraded rungs still run *inside* the caller's
  /// deadline instead of after it. Clamped to (0, 1].
  double exactFraction = 0.6;
  /// Width cap of the degraded streaming DP that certifies the bracket floor.
  /// Small on purpose: the rung exists to be fast, and every capped result
  /// stays a valid bracket (see StreamCountResult::replicasFloor).
  std::int32_t degradedWidthCap = 32;
};

/// One-shot budgeted solve of a homogeneous instance through the degradation
/// ladder:
///
///   rung A (Exact)        the policy's exact frontier DP under a guard;
///   rung C (StreamCapped) a bottom-up greedy placement (validated before it
///                         is returned) plus, budget permitting, the
///                         width-capped streaming DP whose floor certifies
///                         the bracket [lowerBound, cost];
///   otherwise             a structured Cancelled/Error outcome.
///
/// Invariant (asserted by the fault harness): every returned placement
/// validates under the requested policy; a budget trip or an injected fault
/// costs optimality or latency, never correctness.
SolveOutcome solveResilient(const ProblemInstance& instance, OnlinePolicy policy,
                            const SolveBudget& budget,
                            const ResilientOptions& options = {});

/// Budgeted Section-5 ILP solve for ANY policy (storage-cost units): runs the
/// warm-started branch-and-bound under the budget and turns MipResult's
/// always-certified [lowerBound, objective] bracket into a SolveOutcome —
/// Optimal when proven, TimedOutWithIncumbent when the budget truncated the
/// search but an incumbent exists (the warm-ILP-incumbent rung of the
/// ladder). The formulation build itself is not interruptible, so deadline
/// adherence holds for the small/medium instances the ILP is meant for.
SolveOutcome solveResilientIlp(const ProblemInstance& instance, Policy policy,
                               const SolveBudget& budget,
                               const ExactIlpOptions& ilp = {});

class WarmIlpSession;

/// Budgeted re-solve through a live WarmIlpSession (Multiple policy,
/// storage-cost units): same outcome contract as the one-shot overload, but
/// the search starts from the session's persistent workspace, the previous
/// placement repaired as incumbent, and the memoized relaxation floor — the
/// warm-ILP rung of the serving path. A truncated search leaves the session
/// seeded for the next request.
SolveOutcome solveResilientIlp(WarmIlpSession& session, const SolveBudget& budget);

/// Long-lived deadline-aware serving session: an IncrementalSolver (exact,
/// cache-backed) plus an IncrementalBounds relaxation (certified replica
/// floors) plus a retained last-known-good placement, composed into the full
/// ladder per request:
///
///   rung A (Exact)          incremental resolve under the guard — work done
///                           before a trip persists in the caches, so the
///                           next request resumes instead of restarting;
///   rung B (WarmIncumbent)  the last-known-good replica set re-fitted onto
///                           the mutated rates and revalidated;
///   rung C (StreamCapped)   greedy placement + streaming floor, as in
///                           solveResilient;
///   rung D (LastKnownGood)  the retained placement returned verbatim when it
///                           still validates;
///   otherwise               structured Cancelled/Error.
///
/// Degraded rungs take their bracket floor from the incremental relaxation
/// (valid for every policy, including QoS) and the streaming floor (2-D
/// policies), whichever is tighter.
///
/// The instance is shared with the caller; it must outlive the session and
/// mutate only through apply().
class ResilientSession {
 public:
  ResilientSession(ProblemInstance& instance, OnlinePolicy policy,
                   ResilientOptions options = {});

  /// Vet and apply one mutation (throws DeltaError on malformed input with
  /// the instance untouched), invalidating both cache layers.
  DeltaApplication apply(const InstanceDelta& delta);

  /// Run the ladder under `budget` and return a structured outcome. Never
  /// throws on budget trips or injected faults — those surface as degraded /
  /// Cancelled / Error outcomes.
  SolveOutcome solve(const SolveBudget& budget);

  OnlinePolicy policy() const { return policy_; }
  /// The snapshot the last successful rung returned (shared, not copied);
  /// null before the first one.
  const std::shared_ptr<const Placement>& lastKnownGood() const { return lastGood_; }
  const FrontierCacheStats& cacheStats() const { return solver_.cacheStats(); }

 private:
  /// Certified replica-count floor from the (lazily refreshed) relaxation;
  /// 0 when the refresh itself failed. The bounds cache is built on the
  /// first degraded rung that needs it — a session whose exact rung always
  /// answers never pays for it — and rebuilt from scratch after any refresh
  /// failure.
  std::int32_t relaxationFloor();

  ProblemInstance* instance_;
  OnlinePolicy policy_;
  ResilientOptions options_;
  IncrementalSolver solver_;
  std::optional<IncrementalBounds> bounds_;
  std::shared_ptr<const Placement> lastGood_;
};

}  // namespace treeplace
