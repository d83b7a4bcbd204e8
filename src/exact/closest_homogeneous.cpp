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
  const Tree& tree = instance.tree;

  StreamCountResult result;
  const TreeDecomposition decomp(tree);
  const BagId root = decomp.rootBag();
  if (decomp.anchorIsClient(root)) {
    // Degenerate single-vertex tree: feasible only with nothing to serve.
    result.feasible = instance.requests[static_cast<std::size_t>(root)] == 0;
    return result;
  }

  FrontierStreamer streamer(options);
  // Iterative bag schedule: one frame (and one live accumulator on the slab)
  // per internal bag of the current root path.
  struct Frame {
    BagId v;
    std::uint32_t nextChild;
    std::size_t accBegin;
    std::int32_t forestCap;
  };
  std::vector<Frame> stack;
  stack.reserve(64);

  const auto open = [&](BagId v) {
    const std::size_t clientsBelow = decomp.clientsInCone(v);
    const std::size_t internalsBelow = decomp.internalsInCone(v);
    stack.push_back({v, 0, streamer.pushUnit(),
                     widthCap(clientsBelow, internalsBelow - 1)});
  };

  // Same place/skip as the exact solver: the accumulator holds live states
  // only, so the node frontier is its first entry plus that entry's place
  // point (count + 1, flow 0).
  const auto placeSkip = [&](std::size_t begin) {
    const std::int32_t count = streamer.countAt(begin);
    const Requests flow = streamer.flowAt(begin);
    streamer.resize(begin + 1);
    if (flow > 0) streamer.pushEntry(count + 1, 0);
  };

  // A fold can leave no live state (some client sends more than W up): the
  // accumulator vanishes and the instance is infeasible.
  bool dead = false;
  open(root);
  while (!stack.empty() && !dead) {
    if (options.guard != nullptr) options.guard->checkpoint();
    Frame& f = stack.back();  // open() reallocates: never touch f after it
    const auto kids = decomp.children(f.v);
    if (f.nextChild < kids.size()) {
      const BagId c = kids[f.nextChild++];
      if (decomp.anchorIsClient(c)) {
        const std::size_t childBegin = streamer.top();
        streamer.pushEntry(
            0, instance.requests[static_cast<std::size_t>(decomp.anchor(c))]);
        streamer.foldChild(f.accBegin, childBegin, f.forestCap, W);
        dead = streamer.top() == f.accBegin;
      } else {
        open(c);
      }
      continue;
    }
    placeSkip(f.accBegin);
    const std::size_t childBegin = f.accBegin;
    stack.pop_back();
    if (!stack.empty()) {
      Frame& parent = stack.back();
      streamer.foldChild(parent.accBegin, childBegin, parent.forestCap, W);
      dead = streamer.top() == parent.accBegin;
    }
  }

  // The root frontier now occupies the whole slab; a zero-flow entry is
  // unique and last, exactly as in the exact solver.
  result.stats = streamer.stats();
  if (dead) return result;
  const std::size_t width = streamer.top();
  if (width > 0 && streamer.flowAt(width - 1) == 0) {
    result.feasible = true;
    result.replicas = streamer.countAt(width - 1);
  }
  return result;
}

}  // namespace treeplace
