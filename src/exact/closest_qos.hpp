#pragma once

#include <optional>

#include "core/frontier.hpp"
#include "core/frontier_stream.hpp"
#include "core/placement.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Optimal Replica Counting under the Closest policy on homogeneous nodes
/// *with QoS constraints* — the polynomial [9]-style entry behind Table 1's
/// remark that Closest/homogeneous stays polynomial when QoS is added.
///
/// Extends the Pareto dynamic program of solveClosestHomogeneous with a
/// third state dimension: the minimum remaining QoS slack over the subtree's
/// unserved clients (slack of client i at node v is q_i minus the
/// communication time already travelled). Moving up an edge shrinks every
/// slack by the edge's comm time; placing a replica at v requires the
/// incoming flow to fit in W *and* the minimum slack to cover v's
/// computation time. States with negative slack are dead (no higher server
/// can ever satisfy that client) and are pruned.
///
/// Dominance is three-dimensional (fewer replicas, less flow, more slack),
/// so frontiers can be larger than in the QoS-free DP but remain polynomial
/// for the hop-count QoS of the paper's experiments (slacks take O(depth)
/// distinct values).
///
/// The recurrence is ClosestQosStep (core/bag_steps), folded by one cold
/// refresh of a FrontierCache (core/frontier_cache): all frontiers live in
/// one QosFrontierArena slab and candidates are pruned by the count-bucketed
/// QosFrontierSweep (slack-monotone staircase per count bucket) instead of
/// the retired sort + pairwise O(k^2) prune. When `stats` is non-null the
/// per-solve frontier telemetry is written there.
///
/// Returns the optimal placement or std::nullopt when no Closest solution
/// satisfies capacities and QoS. Requires a homogeneous instance. `guard`,
/// when non-null, is ticked once per bag (vertex) and throws
/// SolveInterrupted on a trip (see solveClosestHomogeneous).
std::optional<Placement> solveClosestHomogeneousQos(const ProblemInstance& instance,
                                                    FrontierStats* stats = nullptr,
                                                    BudgetGuard* guard = nullptr);

/// Width-capped streaming variant of the QoS DP (count only, no placement):
/// the same recurrence through a QosFrontierStreamer stack machine, memory
/// O(widthCap * depth). Exact when `result.stats.exact`, otherwise an
/// achievable upper bound (see countClosestHomogeneousStreaming).
StreamCountResult countClosestQosStreaming(const ProblemInstance& instance,
                                           const FrontierStreamOptions& options = {});

}  // namespace treeplace
