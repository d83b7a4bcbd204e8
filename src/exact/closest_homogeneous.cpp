#include "exact/closest_homogeneous.hpp"

#include "core/bag_steps.hpp"

namespace treeplace {

std::optional<Placement> solveClosestHomogeneous(const ProblemInstance& instance,
                                                 FrontierStats* stats,
                                                 BudgetGuard* guard) {
  const Requests W = homogeneousStepCapacity(instance);
  Placement placement(instance.tree.vertexCount());
  if (!solveFrontierDp(instance.tree, ClosestStep(instance, W), stats, guard,
                       [&placement](VertexId node) { placement.addReplica(node); }))
    return std::nullopt;
  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options) {
  const Requests W = homogeneousStepCapacity(instance);

  // The Closest bag step on the preorder sweep. The accumulator holds live
  // states only (flow <= W), so a fold can leave it empty when some client
  // sends more than W up: the sweep then stops, infeasible.
  struct Stream {
    FrontierStreamer& streamer;
    ClosestStep policy;

    FrontierEntry gather(VertexId v, bool client) const {
      return client ? policy.seed(v) : FrontierEntry{};
    }
    void seed(const FrontierEntry& e) { streamer.pushEntry(e.count, e.flow); }
    void fold(const SweepFrame<FrontierEntry>& parent, std::size_t childBegin,
              const FrontierEntry&) {
      const FrontierLimits limits = policy.chain(parent.shape);
      streamer.foldChild(parent.accBegin, childBegin, limits.maxCount, limits.ceiling);
    }
    // The node frontier is the first live entry plus its place point.
    void placeSkip(const SweepFrame<FrontierEntry>& node) {
      const FrontierEntry first{streamer.countAt(node.accBegin),
                                streamer.flowAt(node.accBegin)};
      streamer.resize(node.accBegin + 1);
      if (ClosestStep::placeable(first)) {
        const FrontierEntry p = ClosestStep::placed(first, 0);
        streamer.pushEntry(p.count, p.flow);
      }
    }
  };
  FrontierStreamer streamer(options);
  Stream stream{streamer, ClosestStep(instance, W)};
  return sweepStreamingCount(instance.tree, streamer, stream, options.guard);
}

}  // namespace treeplace
