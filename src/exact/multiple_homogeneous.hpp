#pragma once

#include <optional>
#include <vector>

#include "core/frontier.hpp"
#include "core/frontier_stream.hpp"
#include "core/placement.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Trace of the three passes, exposed for tests and the walkthrough example.
struct MultipleHomogeneousTrace {
  std::vector<VertexId> pass1Replicas;  ///< saturated nodes (flow >= W)
  std::vector<VertexId> pass2Replicas;  ///< extra nodes by maximal useful flow
  std::vector<Requests> pass1Flow;      ///< residual flow after pass 1, per vertex
};

/// The paper's polynomial-time optimal algorithm for Replica Counting with
/// the Multiple strategy on homogeneous nodes (Section 4.1, Theorem 1):
///   pass 1 places a replica wherever the upward flow reaches W (these
///   servers are saturated), pass 2 repeatedly grants a replica to the free
///   node of maximal useful flow, pass 3 assigns concrete requests bottom-up.
/// Pass 2's rescans skip whole subtrees whose useful flow already hit zero,
/// and pass 3 follows skip pointers over exhausted clients, so the solve
/// stays near-linear away from adversarial shapes.
/// Returns std::nullopt when the instance is infeasible (some requests cannot
/// be served even using every node). Requires a homogeneous instance.
/// `guard`, when non-null, is ticked once per pass-2 rescan (each costs
/// O(internals) at worst) and throws SolveInterrupted on a trip.
std::optional<Placement> solveMultipleHomogeneous(
    const ProblemInstance& instance, MultipleHomogeneousTrace* trace = nullptr,
    BudgetGuard* guard = nullptr);

/// Independent exact solver for the same problem on the shared frontier core:
/// a subtree DP over (replica count, residual flow) Pareto frontiers where a
/// replica at a node absorbs min(flow, W). Same optimal replica count as the
/// 3-pass algorithm — kept as a cross-check of both the greedy and the
/// frontier machinery, and as the template for frontier-based extensions.
/// The recurrence is MultipleStep (core/bag_steps), folded by one cold
/// refresh of a FrontierCache (core/frontier_cache). Pass `stats` to collect
/// per-solve frontier telemetry. `guard`, when non-null, is ticked once per bag (vertex) and
/// throws SolveInterrupted on a trip (see solveClosestHomogeneous).
std::optional<Placement> solveMultipleHomogeneousDP(const ProblemInstance& instance,
                                                    FrontierStats* stats = nullptr,
                                                    BudgetGuard* guard = nullptr);

/// Minimal number of replicas, or nullopt if infeasible — convenience wrapper.
std::optional<std::size_t> optimalMultipleReplicaCount(const ProblemInstance& instance);

/// Pass 3 of the Multiple solvers, exposed for consumers that derive the
/// replica set elsewhere (the incremental re-solve engine reconstructs it
/// from cached frontiers): greedy bottom-up assignment of concrete requests
/// to a feasible replica set — every replica, in postorder, absorbs as much
/// of its subtree's unassigned requests as fits its capacity `W` (the
/// instance's homogeneous W, which the caller already holds). Throws when the
/// set cannot serve all requests.
Placement assignMultipleRequests(const ProblemInstance& instance,
                                 const std::vector<char>& isReplica, Requests W);

/// Width-capped streaming variant of the Multiple frontier DP (count only,
/// no placement): the MultipleStep of solveMultipleHomogeneousDP run through
/// sweepStreamingCount (core/frontier_stream) — memory O(widthCap * depth)
/// instead of the full backpointer arena. Exact when `result.stats.exact`,
/// otherwise an achievable upper bound (see countClosestHomogeneousStreaming).
StreamCountResult countMultipleHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options = {});

}  // namespace treeplace
