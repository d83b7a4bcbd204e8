#pragma once

#include <optional>

#include "core/frontier.hpp"
#include "core/frontier_stream.hpp"
#include "core/placement.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Optimal Replica Counting under the Closest policy on homogeneous nodes
/// (the polynomial Table-1 entry, credited to [2,9] in the paper).
///
/// Dynamic program over the tree: the state of a subtree is the Pareto
/// frontier of (replica count, residual unserved flow leaving the subtree).
/// Under Closest, a replica at node v absorbs *all* residual flow of
/// subtree(v) (clients may not traverse it), which is only allowed when that
/// flow is at most W; this makes the residual flow the only coupling between
/// a subtree and the rest of the tree, and frontier sizes are bounded by the
/// subtree's client/internal counts, giving an O(n^2) algorithm.
///
/// The recurrence is ClosestStep (core/bag_steps), folded by one cold
/// refresh of a FrontierCache (core/frontier_cache) and reconstructed by its
/// backpointer walk: frontiers live in the cache's arena and children are
/// merged with the sort-free monotone convolution (see core/frontier.hpp).
/// Pass `stats` to collect the per-solve frontier telemetry.
///
/// Returns the optimal placement (with each client assigned to the first
/// replica on its root path), or std::nullopt when no Closest solution
/// exists. Requires a homogeneous instance.
///
/// `guard`, when non-null, is ticked once per bag (vertex) and throws
/// SolveInterrupted (checkpoint form) on a trip — the DP has no partial
/// placement to salvage, so budgeted callers catch and degrade.
std::optional<Placement> solveClosestHomogeneous(const ProblemInstance& instance,
                                                 FrontierStats* stats = nullptr,
                                                 BudgetGuard* guard = nullptr);

/// Width-capped streaming variant of the Closest DP (count only, no
/// placement): ClosestStep runs on its own merger through
/// sweepStreamingCount (core/frontier_stream), whose arena is kept as a
/// stack, so memory is O(widthCap * depth) instead of the full backpointer
/// arena and s = 10^6 trees fit comfortably. When `result.stats.exact` the
/// count equals the exact DP's optimum; otherwise some merge hit widthCap and
/// the count is an achievable upper bound (capping keeps only reachable
/// states, and the minimum-flow point of every frontier survives, so a
/// feasible instance is never misreported infeasible by the cap).
StreamCountResult countClosestHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options = {});

}  // namespace treeplace
