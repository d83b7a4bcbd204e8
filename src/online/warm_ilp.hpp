#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "formulation/ilp.hpp"
#include "lp/branch_bound.hpp"
#include "lp/workspace.hpp"
#include "online/delta.hpp"
#include "online/incremental.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Patch/rebuild telemetry of a WarmIlpSession.
struct WarmIlpStats {
  std::size_t patches = 0;       ///< deltas absorbed as box/rhs patches
  std::size_t rebuilds = 0;      ///< structural rebuilds after the first build
  std::size_t seededSolves = 0;  ///< solves that started from a repaired incumbent
  long lastNodes = 0;            ///< B&B nodes of the most recent resolve
  long totalNodes = 0;           ///< B&B nodes summed over every resolve
};

/// Incremental exact re-optimization for the *Multiple* policy through the
/// Section 5 ILP: one persistent formulation + LpWorkspace survive a stream
/// of mutations, so a re-solve after a small delta starts from the previous
/// run's optimal basis, the previous placement (greedily repaired onto the
/// mutated rates) as incumbent, and the memoized relaxation floor as
/// knownLowerBound — frequently closing at the root node.
///
/// What makes the standard form patchable instead of rebuilt:
///  - keepZeroRateClients: every client owns its assignment columns/row even
///    at rate 0, so a rate change is setRowRhs + y-box updates;
///  - elasticCapacity: W_j lives in the box of a throughput variable u_j
///    (with M_j = build-time W_j in the matrix), so capacity changes up to
///    M_j are box updates. A change above M_j, or any structural delta
///    (ClientJoin / SubtreeAttach), forces a rebuild — counted in stats().
///
/// Multiple only: the single-server policies put r_i into matrix
/// *coefficients* (and Closest's coupling rows skip zero-rate clients at
/// build time), so their standard forms cannot absorb rate deltas in place.
/// Bandwidth rows are excluded for the same reason (their rhs couples whole
/// subtree demand sums).
///
/// The instance is shared with the caller; it must outlive the session and
/// mutate only through apply().
class WarmIlpSession {
 public:
  explicit WarmIlpSession(ProblemInstance& instance, lp::MipOptions mip = {});

  /// Apply one mutation to the shared instance; patch the live standard form
  /// when the delta allows it, otherwise schedule a rebuild.
  DeltaApplication apply(const InstanceDelta& delta);

  /// Re-solve the mutated instance to proven optimality. Same result contract
  /// as solveExactViaIlp (no placement = infeasible). An optional guard bounds
  /// the search, node pops and LP pivots alike (it replaces any guard in the
  /// ctor's MipOptions); a truncated
  /// run still reports the certified [lowerBound, cost] bracket and keeps the
  /// incumbent as the seed of the next resolve.
  ExactIlpResult resolve(BudgetGuard* guard = nullptr);

  const WarmIlpStats& stats() const { return stats_; }
  /// The memoized relaxation feeding knownLowerBound (and its cache stats).
  const IncrementalBounds& bounds() const { return bounds_; }

 private:
  void build();
  void patchClientRate(VertexId client);
  bool patchCapacity(VertexId node);
  /// Greedy repair of `previous`'s replica set onto the mutated rates
  /// (lowest admissible server first, per client). Empty when the repair
  /// fails — the solve then runs unseeded; correctness never depends on it.
  std::vector<double> encodeIncumbent(const Placement& previous) const;

  ProblemInstance* instance_;
  lp::MipOptions baseMip_;
  IncrementalBounds bounds_;
  std::optional<IlpFormulation> formulation_;
  std::optional<lp::LpWorkspace> workspace_;
  std::vector<Requests> builtCapacity_;  ///< M_j at the last build
  std::optional<Placement> previous_;
  WarmIlpStats stats_;
  bool rebuildNeeded_ = false;
};

}  // namespace treeplace
