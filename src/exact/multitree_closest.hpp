#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/placement.hpp"
#include "tree/multitree.hpp"

namespace treeplace {

// MultitreePlacement lives in core/placement.hpp (pulled in above) so the
// validator can depend on it without reaching into exact/.

struct MultitreeSolveStats {
  std::size_t dfsNodes = 0;      ///< branch-and-bound nodes expanded
  std::size_t dpResolves = 0;    ///< per-tree constrained-DP resolves
  std::size_t dirtyRecomputes = 0;  ///< vertex frontiers recomputed lazily
  std::size_t lexicoTests = 0;   ///< conditional-minimum probes in the scan
  bool exhausted = false;        ///< DFS node valve tripped; result not proven

  /// Names each field once, as f(json_key, value) in JSON key order; the
  /// bench writers (writeFields, bench::renderFields) read this list.
  template <class F>
  void forEachField(F&& f) const {
    f("dfs_nodes", dfsNodes);
    f("dp_resolves", dpResolves);
    f("dirty_recomputes", dirtyRecomputes);
    f("lexico_tests", lexicoTests);
    f("exhausted", exhausted);
  }
};

struct MultitreeSolveResult {
  bool feasible = false;
  std::optional<MultitreePlacement> placement;
  MultitreeSolveStats stats;

  std::size_t replicaCount() const {
    return placement ? placement->replicaCount() : 0;
  }
};

/// Replica Counting on a multitree under the Closest policy, minimising the
/// number of distinct replicas (a shared gateway is counted once however many
/// member trees it serves) and, among all minimum-size solutions, returning
/// the lexicographically smallest sorted global-id vector.
///
/// Feasibility decouples per member tree — a replica set R is feasible iff
/// its trace R ∩ V_t is Closest-feasible in every tree t (each tree has its
/// own homogeneous capacity W_t; a gateway replica provisions W_t in each
/// overlay) — but the *objective* couples the trees through the shared
/// gateways. The solver runs branch-and-bound over gateway in/out decisions:
/// for a fixed decision vector each tree contributes its private optimum via
/// a constrained frontier DP (forced gateways place at cost 0, forbidden
/// ones may not place), and undecided gateways relax to optional cost-0
/// placements, which lower-bounds every completion. The lexicographic
/// refinement then re-uses the same machinery as an ascending-global-id
/// greedy scan: accept id v iff forcing it (cost 0 shared / cost 1 private)
/// keeps the conditional optimum at m*. Rejections are monotone — a
/// rejected id can never re-enter any optimum extending the accepted set —
/// so the scan's accepted set IS the final replica set; no reconstruction.
///
/// Requires per-tree homogeneous capacities. Storage costs, QoS and
/// bandwidth are ignored (pure Replica Counting, as in the paper's Table 1).
MultitreeSolveResult solveMultitreeClosest(const MultitreeInstance& instance);

}  // namespace treeplace
