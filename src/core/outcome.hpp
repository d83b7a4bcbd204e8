#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "core/placement.hpp"
#include "support/budget.hpp"

namespace treeplace {

/// Terminal status of a budgeted/resilient solve. The contract every status
/// obeys — and the fault-injection harness asserts — is: *a fault or a budget
/// trip may cost optimality or latency, never correctness*. Concretely:
/// whenever `placement` is present it validates under the requested policy,
/// and whenever the outcome claims a bracket, the true optimum lies inside
/// [lowerBound, cost].
enum class OutcomeStatus : std::uint8_t {
  Optimal,              ///< exact answer; lowerBound == cost
  FeasibleDegraded,     ///< valid placement from a degraded rung + certified
                        ///< bracket [lowerBound, cost] around the optimum
  TimedOutWithIncumbent,///< budget spent mid-solve; best incumbent returned,
                        ///< bracket still certified
  Cancelled,            ///< cooperative cancel; placement optional
  Infeasible,           ///< proven infeasible (exact or cap-safe streaming)
  Error,                ///< a fault surfaced (allocation failure, poisoned
                        ///< cache, malformed input); no claims are made
};

std::string_view toString(OutcomeStatus status);

/// Which rung of the degradation ladder produced the answer.
enum class DegradationLevel : std::uint8_t {
  Exact,          ///< full exact solver within budget
  WarmIncumbent,  ///< budget-truncated exact search's incumbent (warm ILP/B&B)
  StreamCapped,   ///< width-capped streaming DP bracket + heuristic placement
  LastKnownGood,  ///< previous session placement, revalidated
  None,           ///< no rung produced anything (Infeasible/Cancelled/Error)
};

std::string_view toString(DegradationLevel level);

/// Structured result of every budgeted solve entry point: the best placement
/// known, a certified bracket around the true optimum, and why/where the
/// pipeline stopped. Replaces the assert-or-run-unbounded failure modes of
/// the raw solvers when a budget is in play.
struct SolveOutcome {
  OutcomeStatus status = OutcomeStatus::Error;
  DegradationLevel level = DegradationLevel::None;
  /// Immutable snapshot, shared with whoever else holds it (a serving
  /// session's last-known-good, earlier responses of an unchanged instance):
  /// passing it on costs a reference count, never a copy. Null when absent.
  std::shared_ptr<const Placement> placement;
  /// Cost of `placement` (storage cost; replica count on unit-cost
  /// instances). Infinity when no placement is present.
  double cost = kInfiniteCost;
  /// Certified lower bound on the optimum cost. For Optimal it equals
  /// `cost`; for degraded/timed-out outcomes it comes from a certified
  /// relaxation (streaming cap bracket, B&B dual bound, trivial demand/W
  /// floor) and the optimum provably lies in [lowerBound, cost].
  double lowerBound = 0.0;
  BudgetVerdict budget = BudgetVerdict::Ok;  ///< why the budget stopped us
  double elapsedMs = 0.0;
  long steps = 0;              ///< safepoint steps charged across all rungs
  std::string message;         ///< diagnostics, filled for Error

  static constexpr double kInfiniteCost = 1e300;

  bool hasPlacement() const { return placement != nullptr; }
  /// A finite certified optimality gap exists (cost - lowerBound).
  bool bracketed() const {
    return hasPlacement() && cost < kInfiniteCost && lowerBound > -kInfiniteCost;
  }
  double gap() const { return bracketed() ? cost - lowerBound : kInfiniteCost; }
};

}  // namespace treeplace
