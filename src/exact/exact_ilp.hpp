#pragma once

#include <optional>

#include "core/frontier_fwd.hpp"
#include "core/placement.hpp"
#include "core/policy.hpp"
#include "lp/branch_bound.hpp"
#include "tree/problem.hpp"

namespace treeplace {

struct ExactIlpOptions {
  lp::MipOptions mip;
  bool enforceQos = true;
  bool enforceBandwidth = true;
  /// Strengthen the search with core/bounds::FrontierSubtreeRelaxation: the
  /// per-subtree replica-count floors become cuts/fixings active at every
  /// branch-and-bound node, the additive decomposition bound seeds the known
  /// lower bound, and integral storage costs switch on objective-granularity
  /// rounding. Detects relaxation-infeasible instances without any search.
  bool frontierCuts = true;
  /// Order the placement indicators of identical sibling subtrees (the ILP
  /// twin of the exact searches' symmetry reduction) — same optimal cost,
  /// one representative per permutation orbit.
  bool symmetryCuts = true;
  /// Optional shared arena for the frontier pre-pass; benches that bound
  /// many related instances reuse one allocation across calls.
  FrontierArena* boundsArena = nullptr;
};

struct ExactIlpResult {
  bool proven = false;   ///< branch-and-bound closed the gap
  double cost = 0.0;     ///< cost of `placement` when present
  long nodesExplored = 0;
  std::optional<Placement> placement;
  lp::WarmStartStats warm;  ///< node LP re-solve telemetry
  double lpMillis = 0.0;    ///< wall time spent inside node LP solves
  /// Certified global dual bound on the optimal cost — valid even when the
  /// search was truncated by the node cap or a budget trip, so a truncated
  /// run still reports the bracket [lowerBound, cost]. On a proven
  /// infeasibility it is +infinity.
  double lowerBound = 0.0;
  /// Why the search stopped early (Ok = ran to its natural end or only hit
  /// the classic maxNodes cap); mirrors MipResult::stopReason.
  BudgetVerdict stopReason = BudgetVerdict::Ok;

  bool feasible() const { return placement.has_value(); }
  double resolveMillisPerNode() const {
    return nodesExplored > 0 ? lpMillis / static_cast<double>(nodesExplored) : 0.0;
  }
};

class IlpFormulation;

/// The search every exact ILP solve of a placement formulation shares
/// (solveExactViaIlp and online/warm_ilp's WarmIlpSession): the placement
/// indicators branch before the assignment variables unless
/// `mo.branchPriority` is set, node bounds round up to whole costs when
/// `roundCosts` holds and every storage cost is integral (unless
/// `mo.objectiveGranularity` is set), and the MipResult comes back with its
/// incumbent decoded and costed.
ExactIlpResult solveFormulation(const ProblemInstance& instance,
                                const IlpFormulation& formulation, lp::MipOptions mo,
                                bool roundCosts);

/// Solve Replica Placement to optimality for any policy through the
/// Section 5 ILP and the warm-started branch-and-bound solver. Intended for
/// small instances: all three policies are NP-hard in general (Table 1), and
/// the Closest formulation carries O(s^3) constraints.
ExactIlpResult solveExactViaIlp(const ProblemInstance& instance, Policy policy,
                                const ExactIlpOptions& options = {});

}  // namespace treeplace
