#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/decomposition.hpp"
#include "core/frontier.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// One bag step per frontier policy: the recurrence a policy's DP runs at
/// one bag, written once. Two drivers run whole steps, each on the step's
/// Merger, and write no recurrence of their own: the frontier cache
/// (FrontierCache::refresh, core/frontier_cache) behind every one-shot
/// solve, the subtree relaxation, the incremental solver and bounds and the
/// multitree solver (exact/multitree_closest); and the width-capped
/// streaming counts (sweepStreamingCount, core/frontier_stream). A step
/// gives
///  - seed(client): the client bag's single frontier point;
///  - chain(shape): the count cap and flow ceiling of the child-convolution
///    chain, from the bag shape;
///  - fold(merger, acc, child, childAnchor, limits): one link of the chain;
///  - placeSkip(merger, acc, anchor, shape): the node frontier built from
///    the final accumulator. Backpointers: prev = index into acc, child = 1
///    when a replica sits on the anchor. Empty when acc is;
///  - rootEntry(arena, root): the root entry the optimum reconstructs from,
///    or -1 when no state is feasible;
///  - prefetch(v): issue the reads by vertex id that fold (v as the child
///    anchor) and placeSkip (v as the anchor) will make, so the streaming
///    sweep can run them ahead of the merges; a no-op by default.

/// Validates a homogeneous instance and returns its capacity W, the one every
/// homogeneous step folds with. Throws unless W is positive.
Requests homogeneousStepCapacity(const ProblemInstance& instance);

/// What the three 2-D (count, flow) steps share: the client seed (no
/// replica yet, the client's whole rate flows up), the plain convolution
/// fold and the root entry.
struct FlowStep {
  using Entry = FrontierEntry;
  using Merger = FrontierConvolver;

  explicit FlowStep(const ProblemInstance& inst) : instance(&inst) {}

  const ProblemInstance* instance;

  Entry seed(VertexId client) const {
    return {0, instance->requests[static_cast<std::size_t>(client)], -1, -1};
  }
  static FrontierSpan fold(Merger& conv, FrontierSpan acc, FrontierSpan child, VertexId,
                           const FrontierLimits& limits) {
    return conv.convolve(acc, child, limits.maxCount, limits.ceiling);
  }
  static void prefetch(VertexId) {}
  /// Flows decrease strictly and never go negative, so a zero-flow entry is
  /// unique and last; it is also the cheapest zero-flow state.
  static std::int32_t rootEntry(const FrontierArena& arena, FrontierSpan root);
};

/// Closest on homogeneous servers (exact/closest_homogeneous). A replica on
/// the anchor absorbs *all* residual flow of its subtree, which is allowed
/// only when that flow fits W.
struct ClosestStep : FlowStep {
  ClosestStep(const ProblemInstance& inst, Requests capacity)
      : FlowStep(inst), W(capacity) {}

  Requests W;

  /// Every replica on a Pareto point serves at least one client wholly (a
  /// replica serving nobody can be dropped without changing the residual
  /// flow), and replicas occupy distinct internal nodes of the child forest,
  /// which excludes the anchor. Whatever the bag sends up is served by one
  /// replica, so states above W are dead.
  FrontierLimits chain(const BagShape& b) const {
    return {std::min(b.clients, b.internals - 1), W};
  }
  /// Place rule. Every live state fits a replica on the anchor, and placing
  /// one on the cheapest state dominates keeping any costlier state. So the
  /// node frontier is the first state plus, when that state sends flow up,
  /// its place point (count + 1, flow 0).
  static bool placeable(const Entry& e) { return e.flow > 0; }
  static Entry placed(const Entry& e, std::int32_t k) { return {e.count + 1, 0, k, 1}; }
  FrontierSpan placeSkip(Merger& conv, FrontierSpan acc, VertexId anchor,
                         const BagShape& b) const;
};

/// Per-vertex placement constraint of ConstrainedClosestStep. Its counts are
/// cost-weighted: a private replica costs 1, a shared multitree gateway
/// costs 0 inside one member tree (the multitree solver counts gateways
/// once, globally).
enum class NodeState : std::uint8_t {
  Free,        ///< optional replica at cost 1
  FreeZero,    ///< optional replica at cost 0 (an undecided gateway)
  Forced,      ///< mandatory replica, cost 1
  ForcedZero,  ///< mandatory replica, cost 0
  Forbidden,   ///< may not place
};

/// Closest on homogeneous servers under per-vertex NodeStates — the
/// conditional DP of the multitree solver (exact/multitree_closest). It is
/// read at the root only, never reconstructed: its answer is the cheapest
/// cost-weighted count serving every client.
struct ConstrainedClosestStep : FlowStep {
  ConstrainedClosestStep(const ProblemInstance& inst, Requests capacity)
      : FlowStep(inst), W(capacity), state(inst.tree.vertexCount(), NodeState::Free) {}

  Requests W;
  std::vector<NodeState> state;  ///< per vertex

  /// Unlike ClosestStep, a Forced replica may serve nobody, so counts are
  /// capped by the cone's internal nodes, the anchor included. Whatever the
  /// bag sends up is still served by one replica: states above W are dead.
  FrontierLimits chain(const BagShape& b) const { return {b.internals, W}; }
  /// Every live state fits a replica on the anchor, so, as in ClosestStep,
  /// placing on the cheapest state dominates every costlier one. Free keeps
  /// that state plus its place point, Forced only the place point, and the
  /// zero-cost states place without raising the count. Forbidden passes the
  /// fold up unchanged.
  FrontierSpan placeSkip(Merger& conv, FrontierSpan acc, VertexId anchor,
                         const BagShape& b) const;
};

/// Multiple on homogeneous servers (the frontier DP of
/// exact/multiple_homogeneous). A replica on the anchor absorbs min(flow, W).
struct MultipleStep : FlowStep {
  MultipleStep(const ProblemInstance& inst, Requests capacity)
      : FlowStep(inst), W(capacity) {}

  Requests W;
  std::vector<FrontierEntry> options;  ///< place/skip scratch

  /// Replicas sit on distinct internal nodes and a replica absorbing nothing
  /// is dominated, so counts never exceed the child forest's internal-node
  /// count. The bag's depth ancestors absorb at most W each of what it sends
  /// up, and the chain's flow may still meet a replica on the anchor itself.
  FrontierLimits chain(const BagShape& b) const {
    return {b.internals - 1, W * b.depth + W};
  }
  /// The node frontier: the anchor may hold a replica, and only the depth
  /// ancestors are left to absorb its flow.
  FrontierLimits node(const BagShape& b) const { return {b.internals, W * b.depth}; }
  /// Place rule, shared with the relaxation: a replica of `capacity` on the
  /// anchor absorbs min(flow, capacity). Every state is kept, and a state
  /// sending flow up also offers (count + 1, max(0, flow - capacity)).
  static bool placeable(const Entry& e, Requests capacity) {
    return capacity > 0 && e.flow > 0;
  }
  static Entry placed(const Entry& e, std::int32_t k, Requests capacity) {
    return {e.count + 1, std::max<Requests>(0, e.flow - capacity), k, 1};
  }
  /// The place rule over a whole accumulator, pruned to `limits`; `options`
  /// is caller-owned scratch.
  static FrontierSpan absorbPlaceSkip(Merger& conv, FrontierSpan acc, Requests capacity,
                                      const FrontierLimits& limits,
                                      std::vector<FrontierEntry>& options);
  FrontierSpan placeSkip(Merger& conv, FrontierSpan acc, VertexId,
                         const BagShape& b) {
    return absorbPlaceSkip(conv, acc, W, node(b), options);
  }
};

/// The heterogeneous relaxation behind FrontierSubtreeRelaxation
/// (core/bounds): Multiple's recurrence with a per-anchor capacity W_v and
/// no flow ceiling. It bounds every policy, so nothing above a bag is known
/// to absorb less than everything. A replica on the anchor absorbs
/// min(flow, W_v), which relaxes every real assignment. It is read per
/// subtree, never reconstructed.
struct RelaxationStep : FlowStep {
  using FlowStep::FlowStep;

  std::vector<FrontierEntry> options;  ///< place/skip scratch

  /// Counts are capped by the cone's internal nodes, the anchor included,
  /// for the chain and the node frontier alike.
  FrontierLimits chain(const BagShape& b) const { return {b.internals, kNoFlowCeiling}; }
  FrontierSpan placeSkip(Merger& conv, FrontierSpan acc, VertexId anchor,
                         const BagShape& b) {
    return MultipleStep::absorbPlaceSkip(
        conv, acc, instance->capacity[static_cast<std::size_t>(anchor)], chain(b),
        options);
  }
};

/// Closest with QoS on homogeneous servers (exact/closest_qos): the 3-D
/// (count, flow, slack) frontier. A replica on the anchor needs the incoming
/// flow to fit W and the minimum slack to cover the anchor's computation
/// time.
struct ClosestQosStep {
  using Entry = QosFrontierEntry;
  using Merger = QosFrontierSweep;

  static constexpr double kInfiniteSlack = std::numeric_limits<double>::infinity();

  ClosestQosStep(const ProblemInstance& inst, Requests capacity)
      : instance(&inst), W(capacity) {}

  const ProblemInstance* instance;
  Requests W;

  /// Slack is measured at the client itself; its uplink is charged when the
  /// entry moves into the parent.
  Entry seed(VertexId client) const {
    const auto c = static_cast<std::size_t>(client);
    const Requests r = instance->requests[c];
    return {0, r, r > 0 ? instance->qos[c] : kInfiniteSlack, -1, -1};
  }
  /// Replica counts in the cone never exceed its internal-node count, and
  /// one replica serves whatever the bag sends up, so states above W are
  /// dead. The node frontier runs under the same limits.
  FrontierLimits chain(const BagShape& b) const { return {b.internals, W}; }
  /// The child's states first pay the child's uplink latency.
  FrontierSpan fold(Merger& sweep, FrontierSpan acc, FrontierSpan child,
                    VertexId childAnchor, const FrontierLimits& limits) const {
    return sweep.convolve(acc, child, limits.maxCount,
                          instance->commTime[static_cast<std::size_t>(childAnchor)],
                          limits.ceiling);
  }
  /// Place rule: every state is kept, and a state whose flow fits W and
  /// whose slack covers the anchor's `compTime` also offers (count + 1,
  /// flow 0, infinite slack).
  bool placeable(const Entry& e, double compTime) const {
    return e.flow <= W && e.slack >= compTime - 1e-9;
  }
  static Entry placed(const Entry& e, std::int32_t k) {
    return {e.count + 1, 0, kInfiniteSlack, k, 1};
  }
  FrontierSpan placeSkip(Merger& sweep, FrontierSpan acc, VertexId anchor,
                         const BagShape& b) const;
  void prefetch(VertexId v) const {
    const auto vi = static_cast<std::size_t>(v);
    __builtin_prefetch(instance->commTime.data() + vi);
    __builtin_prefetch(instance->compTime.data() + vi);
  }
  /// The pruned frontier holds at most one zero-flow entry (two would
  /// dominate one another through their infinite slack): the cheapest one.
  static std::int32_t rootEntry(const QosFrontierArena& arena, FrontierSpan root);
};

}  // namespace treeplace
