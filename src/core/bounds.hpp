#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// The obvious Replica Counting lower bound ceil(sum r_i / W) of Section 3.4.
/// Requires a homogeneous instance with positive capacity.
Requests countingLowerBound(const ProblemInstance& instance);

/// Structure-free fractional lower bound on Replica Cost for heterogeneous
/// nodes: replicas must jointly provide capacity for all requests, so the
/// cheapest fractional cover (fill nodes by increasing cost/capacity ratio)
/// bounds every policy from below. Much weaker than the LP bound; used as a
/// sanity floor and a B&B seed.
double fractionalCoverLowerBound(const ProblemInstance& instance);

/// True when every internal storage cost is an integer — the precondition
/// for rounding LP bounds up to the next integer (and for branch-and-bound's
/// objective-granularity bucketing).
bool integralStorageCosts(const ProblemInstance& instance);

/// What the per-subtree relaxation frontiers say, derived in linear passes
/// (see FrontierSubtreeRelaxation for the meaning of each field).
struct SubtreeFloors {
  std::vector<std::int32_t> minReplicas;  ///< per vertex; 0 for clients
  double decompositionBound = 0.0;
  bool feasible = true;
};

/// The derived passes of the relaxation, shared by FrontierSubtreeRelaxation
/// and its incremental twin (online/IncrementalBounds): ancestor capacities,
/// the per-subtree replica floors and the additive decomposition bound, read
/// off each vertex's relaxation frontier `frontier[v]` in `arena`.
SubtreeFloors deriveSubtreeFloors(const ProblemInstance& instance,
                                  const FrontierArena& arena,
                                  std::span<const FrontierSpan> frontier);

/// Per-subtree frontier relaxation of the Multiple policy (valid for every
/// policy, heterogeneous or not): one bottom-up pass of the core/frontier DP
/// with RelaxationStep (core/bag_steps), whose place step absorbs
/// min(flow, W_v), computes for every vertex the Pareto frontier of
/// (replicas inside subtree(v), requests flowing out unserved). Because a server outside subtree(v) serving one of its clients
/// must be a strict ancestor of v, the outflow of subtree(v) is capped by the
/// total capacity of v's strict ancestors — so the frontier yields a hard
/// floor on the replicas *inside* each subtree, information the structure-free
/// cover bound cannot see (cf. the treewidth DP relaxations of
/// arXiv:1705.00145).
class FrontierSubtreeRelaxation {
 public:
  explicit FrontierSubtreeRelaxation(const ProblemInstance& instance);

  /// Same relaxation, but the frontier slab lives in the caller's `arena`
  /// (reset on entry, capacity kept): callers that bound many related
  /// instances — benches, batched drivers — reuse one allocation instead of
  /// paying a fresh slab per instance. The arena is pure scratch; the
  /// relaxation keeps no reference to it after construction.
  FrontierSubtreeRelaxation(const ProblemInstance& instance, FrontierArena& arena);

  /// False when even a replica on every internal node leaves requests
  /// unserved at the root — the instance is infeasible for every policy.
  bool feasible() const { return floors_.feasible; }

  /// Minimum total replica count of any feasible solution (any policy).
  /// Meaningful only when feasible().
  std::int32_t minTotalReplicas() const { return minReplicasIn(tree_->root()); }

  /// Minimum replicas inside subtree(v) in any feasible solution, given that
  /// at most the strict-ancestor capacity of v can flow out. When the subtree
  /// cannot meet that outflow at all, every internal node of the subtree is
  /// required (and the instance is infeasible).
  std::int32_t minReplicasIn(VertexId v) const {
    return floors_.minReplicas[static_cast<std::size_t>(v)];
  }

  /// Additive Replica Cost floor: over the best decomposition into disjoint
  /// subtrees, each subtree v contributes the sum of its minReplicasIn(v)
  /// cheapest internal storage costs. Always a valid lower bound on the
  /// optimal cost of every policy; 0 when the relaxation has nothing to say.
  double decompositionBound() const { return floors_.decompositionBound; }

  const FrontierStats& stats() const { return stats_; }

 private:
  void build(const ProblemInstance& instance, FrontierArena& arena);

  const Tree* tree_;
  SubtreeFloors floors_;
  FrontierStats stats_;
};

}  // namespace treeplace
