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
/// Frontiers live in a per-solve FrontierArena and children are merged with
/// the sort-free monotone convolution (see core/frontier.hpp). Pass `stats`
/// to collect the per-solve frontier telemetry.
///
/// Returns the optimal placement (with each client assigned to the first
/// replica on its root path), or std::nullopt when no Closest solution
/// exists. Requires a homogeneous instance.
///
/// `guard`, when non-null, is ticked once per postorder visit and throws
/// SolveInterrupted (checkpoint form) on a trip — the DP has no partial
/// placement to salvage, so budgeted callers catch and degrade.
std::optional<Placement> solveClosestHomogeneous(const ProblemInstance& instance,
                                                 FrontierStats* stats = nullptr,
                                                 BudgetGuard* guard = nullptr);

/// The Closest place/skip step of a bag whose child-convolution frontier
/// `acc` was built under the flow ceiling W (shared by the one-shot and the
/// incremental DP). Every live state fits a replica on the anchor, and
/// placing one on the cheapest state — (count + 1, flow 0) — dominates
/// keeping any costlier state, so the node frontier is {acc[0], its place
/// point} (prev = 0; child = 1 marks the replica). Empty when acc is.
FrontierSpan closestPlaceSkip(FrontierArena& arena, FrontierSpan acc);

/// Width-capped streaming variant of the Closest DP (count only, no
/// placement): the same recurrence runs through a FrontierStreamer stack
/// machine, so memory is O(widthCap * depth) instead of the full backpointer
/// arena and s = 10^6 trees fit comfortably. When `result.stats.exact` the
/// count equals the exact DP's optimum; otherwise some merge hit widthCap and
/// the count is an achievable upper bound (capping keeps only reachable
/// states, and the minimum-flow point of every frontier survives, so a
/// feasible instance is never misreported infeasible by the cap).
StreamCountResult countClosestHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options = {});

}  // namespace treeplace
