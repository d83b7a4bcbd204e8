#pragma once

#include "core/frontier_fwd.hpp"
#include "core/policy.hpp"
#include "lp/branch_bound.hpp"
#include "tree/problem.hpp"

namespace treeplace {

struct LowerBoundOptions {
  long maxNodes = 400;              ///< branch-and-bound node budget
  double knownUpperBound = lp::kInfinity;  ///< heuristic cost, used for pruning
  /// Honouring QoS/bandwidth raises the bound but makes it incomparable to
  /// the costs of the QoS-blind Section 6 heuristics; disable them when
  /// bounding the plain Replica Cost problem on a constrained instance.
  bool enforceQos = true;
  bool enforceBandwidth = true;
  /// Optional shared arena for the frontier floor pre-pass; the batch driver
  /// hands every worker its own so fleet sweeps stop reallocating the slab
  /// once per instance.
  FrontierArena* boundsArena = nullptr;
};

struct LowerBoundResult {
  /// Valid lower bound on the optimal Replica Cost of *every* policy (it is
  /// computed from the Multiple relaxation, and Multiple <= Upwards <=
  /// Closest in optimal cost). -infinity only if the LP solver failed.
  double bound = 0.0;
  /// The combinatorial frontier floor folded into `bound`: the per-subtree
  /// decomposition bound of core/bounds' FrontierSubtreeRelaxation (0 when it
  /// has nothing to say). Exposed separately so benches can report how often
  /// the frontier refinement, not the LP, carries the bound.
  double frontierBound = 0.0;
  bool exact = false;        ///< branch-and-bound proved the bound tight
  bool lpFeasible = false;   ///< the rational Multiple program has a solution
  long nodesExplored = 0;
};

/// The paper's Section 7.1 "refined lower bound": the Multiple program with
/// rational assignment variables y and *integral* placement variables x,
/// solved by branch-and-bound; when every storage cost is integral the bound
/// is rounded up. Falls back to the pure rational bound when the node budget
/// is exhausted early (the partial search still yields a valid global bound).
LowerBoundResult refinedLowerBound(const ProblemInstance& instance,
                                   const LowerBoundOptions& options = {});

/// The pure rational relaxation bound of Section 5.3 (everything rational).
LowerBoundResult rationalLowerBound(const ProblemInstance& instance,
                                    const LowerBoundOptions& options = {});

}  // namespace treeplace
