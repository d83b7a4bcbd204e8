#include "exact/multiple_homogeneous.hpp"

#include <algorithm>

#include "core/bag_steps.hpp"
#include "core/frontier_cache.hpp"
#include "support/require.hpp"

namespace treeplace {

/// Pass 3: greedy bottom-up assignment. Every replica, taken in postorder,
/// absorbs as much of its subtree's still-unassigned requests as fits
/// (clients left to right, splitting the last one). On a laminar family this
/// maximises the total served load, so it completes whenever the replica set
/// is feasible. Exhausted clients are skipped through path-halved skip
/// pointers, so the total scan work stays near-linear in clients + replicas
/// instead of replicas x clients.
Placement assignMultipleRequests(const ProblemInstance& instance,
                                 const std::vector<char>& isReplica, Requests W) {
  const Tree& tree = instance.tree;
  Placement placement(tree.vertexCount());
  // Every client ends with one share plus at most one extra per replica (only
  // the last client a replica touches can be split). Each split also
  // relocates a one-share run inside the pool, leaving a one-slot hole, so
  // reserving clients + 2x replicas keeps the whole assignment in one block.
  std::size_t replicas = 0;
  for (const char r : isReplica) replicas += static_cast<std::size_t>(r);
  placement.reserveShares(tree.clients().size() + 2 * replicas);
  std::vector<Requests> remaining = instance.requests;

  const auto& clients = tree.clients();
  // skip[i]: smallest j >= i whose client still has unassigned requests.
  std::vector<std::int32_t> skip(clients.size() + 1);
  for (std::size_t i = 0; i <= clients.size(); ++i)
    skip[i] = static_cast<std::int32_t>(i);
  for (std::size_t i = 0; i < clients.size(); ++i)
    if (remaining[static_cast<std::size_t>(clients[i])] == 0)
      skip[i] = static_cast<std::int32_t>(i + 1);
  const auto nextActive = [&skip](std::int32_t i) {
    while (skip[static_cast<std::size_t>(i)] != i) {
      auto& s = skip[static_cast<std::size_t>(i)];
      s = skip[static_cast<std::size_t>(s)];
      i = s;
    }
    return i;
  };

  for (const VertexId s : tree.postorder()) {
    if (!tree.isInternal(s) || !isReplica[static_cast<std::size_t>(s)]) continue;
    placement.addReplica(s);
    // clientsInSubtree is a sub-span of clients(): recover its index range.
    const auto span = tree.clientsInSubtree(s);
    const auto lo = static_cast<std::int32_t>(span.data() - clients.data());
    const auto hi = lo + static_cast<std::int32_t>(span.size());
    Requests budget = W;
    for (std::int32_t i = nextActive(lo); i < hi && budget > 0;
         i = nextActive(i + 1)) {
      const VertexId client = clients[static_cast<std::size_t>(i)];
      auto& rest = remaining[static_cast<std::size_t>(client)];
      const Requests take = std::min(rest, budget);
      placement.assign(client, s, take);
      rest -= take;
      budget -= take;
      if (rest == 0) skip[static_cast<std::size_t>(i)] = i + 1;
    }
  }
  for (const VertexId client : tree.clients()) {
    TREEPLACE_REQUIRE(remaining[static_cast<std::size_t>(client)] == 0,
                      "pass 3 failed to assign all requests — flow bookkeeping bug");
  }
  // The server-order build above relocates a run whenever a replica splits a
  // client that already holds a share, leaving holes behind; one compaction
  // pass restores fully sequential scans in the preorder client order every
  // consumer walks.
  placement.compact(tree.clients());
  return placement;
}

std::optional<Placement> solveMultipleHomogeneous(const ProblemInstance& instance,
                                                  MultipleHomogeneousTrace* trace,
                                                  BudgetGuard* guard) {
  const Requests W = homogeneousStepCapacity(instance);
  const Tree& tree = instance.tree;
  const std::size_t n = tree.vertexCount();

  std::vector<char> isReplica(n, 0);
  std::vector<Requests> flow(n, 0);

  // Pass 1: place a replica wherever the upward flow reaches W; such a
  // server is fully used (it absorbs exactly W).
  for (const VertexId v : tree.postorder()) {
    const auto i = static_cast<std::size_t>(v);
    if (tree.isClient(v)) {
      flow[i] = instance.requests[i];
      continue;
    }
    for (const VertexId c : tree.children(v)) flow[i] += flow[static_cast<std::size_t>(c)];
    if (flow[i] >= W) {
      flow[i] -= W;
      isReplica[i] = 1;
      if (trace) trace->pass1Replicas.push_back(v);
    }
  }
  if (trace) trace->pass1Flow = flow;

  const VertexId root = tree.root();
  const auto ri = static_cast<std::size_t>(root);

  if (flow[ri] != 0 && flow[ri] <= W && !isReplica[ri]) {
    // The root can mop up the leftover on its own.
    isReplica[ri] = 1;
    if (trace) trace->pass2Replicas.push_back(root);
    flow[ri] = 0;
  }

  // Pass 2: while requests still reach the root unserved, grant a replica to
  // the free node with maximal useful flow (the minimum flow on its path to
  // the root — that is how many extra requests it can really absorb).
  //
  // The rescan walks internal nodes only (clients never host replicas and
  // only internal parents feed the path minimum), in preorder so the
  // depth-first tie-break of the optimality proof is preserved, and it skips
  // a whole subtree as soon as its useful flow hits zero — nothing below a
  // dry edge can be the next pick.
  const auto& internals = tree.internals();
  const std::size_t internalCount = internals.size();
  std::vector<VertexId> parentOf(n, kNoVertex);
  for (const VertexId v : tree.preorder()) parentOf[static_cast<std::size_t>(v)] = tree.parent(v);
  // subtreeEndIdx[k]: index into `internals` just past subtree(internals[k]).
  std::vector<std::int32_t> subtreeEndIdx(internalCount);
  {
    std::vector<std::int32_t> intPos(internalCount);
    for (std::size_t k = 0; k < internalCount; ++k)
      intPos[k] = tree.preorderIndex(internals[k]);
    for (std::size_t k = 0; k < internalCount; ++k)
      subtreeEndIdx[k] = static_cast<std::int32_t>(
          std::lower_bound(intPos.begin() + static_cast<std::ptrdiff_t>(k),
                           intPos.end(), tree.preorderEnd(internals[k])) -
          intPos.begin());
  }

  std::vector<Requests> uflow(n, 0);
  while (flow[ri] != 0) {
    if (guard != nullptr) guard->checkpoint();
    VertexId best = kNoVertex;
    Requests bestFlow = 0;
    for (std::size_t k = 0; k < internalCount;) {
      const VertexId v = internals[k];
      const auto i = static_cast<std::size_t>(v);
      const Requests uf =
          (v == root)
              ? flow[i]
              : std::min(flow[i],
                         uflow[static_cast<std::size_t>(parentOf[i])]);
      uflow[i] = uf;
      // Useful flow is a path minimum, so it only shrinks going down: once a
      // node cannot strictly beat the incumbent, nothing below it can, and
      // the whole subtree is skipped. Preorder plus strict improvement keeps
      // the depth-first tie-break from the optimality proof intact (a
      // descendant tying the incumbent would lose the tie anyway).
      if (!isReplica[i] && uf > bestFlow) {
        bestFlow = uf;
        best = v;
        k = static_cast<std::size_t>(subtreeEndIdx[k]);
        continue;
      }
      if (uf <= bestFlow) {
        k = static_cast<std::size_t>(subtreeEndIdx[k]);
        continue;
      }
      ++k;
    }
    if (best == kNoVertex) return std::nullopt;  // no free node can still help
    isReplica[static_cast<std::size_t>(best)] = 1;
    if (trace) trace->pass2Replicas.push_back(best);
    const Requests absorbed = std::min(bestFlow, W);
    for (VertexId v = best; v != kNoVertex; v = parentOf[static_cast<std::size_t>(v)])
      flow[static_cast<std::size_t>(v)] -= absorbed;
  }

  return assignMultipleRequests(instance, isReplica, W);
}

std::optional<Placement> solveMultipleHomogeneousDP(const ProblemInstance& instance,
                                                    FrontierStats* stats,
                                                    BudgetGuard* guard) {
  const Requests W = homogeneousStepCapacity(instance);
  std::vector<char> isReplica(instance.tree.vertexCount(), 0);
  if (!solveCold(instance.tree, MultipleStep(instance, W), stats, guard,
                 [&isReplica](VertexId node) {
                   isReplica[static_cast<std::size_t>(node)] = 1;
                 }))
    return std::nullopt;
  return assignMultipleRequests(instance, isReplica, W);
}

std::optional<std::size_t> optimalMultipleReplicaCount(const ProblemInstance& instance) {
  const auto placement = solveMultipleHomogeneous(instance);
  if (!placement) return std::nullopt;
  return placement->replicaCount();
}

StreamCountResult countMultipleHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options) {
  const Requests W = homogeneousStepCapacity(instance);

  // The Multiple bag step on the preorder sweep: a fold that keeps nothing
  // under the chain's ceiling stops the sweep, infeasible.
  struct Stream {
    FrontierStreamer& streamer;
    MultipleStep policy;

    FrontierEntry gather(VertexId v, bool client) const {
      return client ? policy.seed(v) : FrontierEntry{};
    }
    void seed(const FrontierEntry& e) { streamer.pushEntry(e.count, e.flow); }
    void fold(const SweepFrame<FrontierEntry>& parent, std::size_t childBegin,
              const FrontierEntry&) {
      const FrontierLimits limits = policy.chain(parent.shape);
      streamer.foldChild(parent.accBegin, childBegin, limits.maxCount, limits.ceiling);
    }
    // The general candidate prune, not Closest's two-point step.
    void placeSkip(const SweepFrame<FrontierEntry>& node) {
      streamer.clearCandidates();
      for (std::size_t k = node.accBegin; k < streamer.top(); ++k) {
        const FrontierEntry e{streamer.countAt(k), streamer.flowAt(k)};
        streamer.addCandidate(e.count, e.flow);
        if (MultipleStep::placeable(e, policy.W)) {
          const FrontierEntry p = MultipleStep::placed(e, 0, policy.W);
          streamer.addCandidate(p.count, p.flow);
        }
      }
      const FrontierLimits limits = policy.node(node.shape);
      streamer.commitPruned(node.accBegin, limits.maxCount, limits.ceiling);
    }
  };
  FrontierStreamer streamer(options);
  Stream stream{streamer, MultipleStep(instance, W)};
  return sweepStreamingCount(instance.tree, streamer, stream, options.guard);
}

}  // namespace treeplace
