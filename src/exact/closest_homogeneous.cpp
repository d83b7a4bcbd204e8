#include "exact/closest_homogeneous.hpp"

#include <algorithm>
#include <vector>

#include "support/require.hpp"

namespace treeplace {
namespace {

/// Width bound of a Closest frontier over a forest: every replica on a Pareto
/// point serves at least one client wholly (a replica serving nobody can be
/// dropped without changing the residual flow), and replicas occupy distinct
/// internal nodes — so Pareto counts never exceed min(#clients, #internals).
std::int32_t widthCap(std::size_t clients, std::size_t internals) {
  return static_cast<std::int32_t>(std::min(clients, internals));
}

}  // namespace

FrontierSpan closestPlaceSkip(FrontierArena& arena, FrontierSpan acc) {
  const std::uint32_t begin = arena.beginSpan();
  if (!acc.empty()) {
    const FrontierEntry e = arena.at(acc, 0);  // copy: the pushes may grow the slab
    arena.push({e.count, e.flow, 0, 0});
    if (e.flow > 0) arena.push({e.count + 1, 0, 0, 1});
  }
  return arena.endSpan(begin);
}

std::optional<Placement> solveClosestHomogeneous(const ProblemInstance& instance,
                                                 FrontierStats* stats,
                                                 BudgetGuard* guard) {
  instance.validate();
  const Requests W = instance.homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");
  const Tree& tree = instance.tree;
  const std::size_t n = tree.vertexCount();

  FrontierArena arena;
  arena.reset(4 * n);
  FrontierConvolver conv(arena);
  const TreeDecomposition decomp(tree);
  FrontierDp dp(decomp, arena);

  const auto publishStats = [&] {
    if (stats != nullptr) {
      conv.noteArenaUsage();
      *stats = conv.stats();
    }
  };

  for (const BagId v : decomp.schedule()) {
    if (guard != nullptr) guard->checkpoint();
    const auto vi = static_cast<std::size_t>(decomp.anchor(v));
    if (decomp.anchorIsClient(v)) {
      dp.seedClient(v, instance.requests[vi]);
      continue;
    }

    const std::size_t clientsBelow = decomp.clientsInCone(v);
    const std::size_t internalsBelow = decomp.internalsInCone(v);
    // The bag's child forest excludes the anchor itself; placing there adds
    // one more.
    const std::int32_t forestCap = widthCap(clientsBelow, internalsBelow - 1);

    // Convolve child-bag frontiers: counts add, flows add. Each prefix result
    // is already pruned; keep its span for the backpointer walk. Whatever
    // the bag sends up is served by one replica (here or above), so states
    // above W are dead and never stored.
    FrontierSpan acc = conv.unit();
    const auto children = decomp.mergeChildren(v);
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      acc = conv.convolve(acc, dp.frontier(children[ci]), forestCap, W);
      dp.setCombo(v, ci, acc);
    }
    dp.setFrontier(v, closestPlaceSkip(arena, acc));
    conv.noteWidth(dp.frontier(v).size);
  }

  publishStats();

  // Flows decrease strictly and never go negative, so a zero-flow entry is
  // unique and last; it is also the minimum-count zero-flow state.
  const FrontierSpan rootSpan = dp.frontier(decomp.rootBag());
  if (rootSpan.empty() || arena.at(rootSpan, rootSpan.size - 1).flow != 0)
    return std::nullopt;

  // Reconstruct the replica set top-down through the arena backpointers.
  Placement placement(n);
  dp.reconstruct(static_cast<std::int32_t>(rootSpan.size - 1),
                 [&placement](VertexId node) { placement.addReplica(node); });

  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options) {
  instance.validate();
  const Requests W = instance.homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");

  // The exact solver's recurrence on the preorder sweep. The accumulator
  // holds live states only (flow <= W), so a fold can leave it empty when
  // some client sends more than W up: the sweep then stops, infeasible.
  struct Step {
    FrontierStreamer& streamer;
    const std::vector<Requests>& requests;
    Requests W;

    Requests gather(VertexId v, bool client) const {
      return client ? requests[static_cast<std::size_t>(v)] : 0;
    }
    void seed(Requests request) { streamer.pushEntry(0, request); }
    void fold(const SweepFrame<Requests>& parent, std::size_t childBegin, Requests) {
      streamer.foldChild(parent.accBegin, childBegin,
                         widthCap(static_cast<std::size_t>(parent.clients),
                                  static_cast<std::size_t>(parent.internals - 1)),
                         W);
    }
    // Same place/skip as the exact solver: the node frontier is the first
    // live entry plus its place point (count + 1, flow 0).
    void placeSkip(const SweepFrame<Requests>& node) {
      const std::int32_t count = streamer.countAt(node.accBegin);
      const Requests flow = streamer.flowAt(node.accBegin);
      streamer.resize(node.accBegin + 1);
      if (flow > 0) streamer.pushEntry(count + 1, 0);
    }
  };
  FrontierStreamer streamer(options);
  Step step{streamer, instance.requests, W};
  return sweepStreamingCount(instance.tree, streamer, step, options.guard);
}

}  // namespace treeplace
