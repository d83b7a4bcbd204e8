#include "exact/closest_qos.hpp"

#include "core/bag_steps.hpp"

namespace treeplace {

std::optional<Placement> solveClosestHomogeneousQos(const ProblemInstance& instance,
                                                    FrontierStats* stats,
                                                    BudgetGuard* guard) {
  const Requests W = homogeneousStepCapacity(instance);
  Placement placement(instance.tree.vertexCount());
  if (!solveFrontierDp(instance.tree, ClosestQosStep(instance, W), stats, guard,
                       [&placement](VertexId node) { placement.addReplica(node); }))
    return std::nullopt;
  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestQosStreaming(const ProblemInstance& instance,
                                           const FrontierStreamOptions& options) {
  const Requests W = homogeneousStepCapacity(instance);

  struct QosInput {
    Requests flow;  ///< client: the seed's flow
    double limit;   ///< client: the seed's slack; internal: computation time
    double uplink;  ///< comm time of the link to the parent
  };
  // The ClosestQos bag step on the preorder sweep. A fold can kill every
  // state (some client unreachable in time, or more than W sent up): the
  // sweep then stops, infeasible.
  struct Stream {
    QosFrontierStreamer& streamer;
    ClosestQosStep policy;

    QosInput gather(VertexId v, bool client) const {
      const auto vi = static_cast<std::size_t>(v);
      const double uplink = policy.instance->commTime[vi];
      if (!client) return {0, policy.instance->compTime[vi], uplink};
      const QosFrontierEntry e = policy.seed(v);
      return {e.flow, e.slack, uplink};
    }
    void seed(const QosInput& client) { streamer.pushEntry(0, client.flow, client.limit); }
    void fold(const SweepFrame<QosInput>& parent, std::size_t childBegin,
              const QosInput& child) {
      const FrontierLimits limits = policy.chain(parent.shape);
      streamer.foldChild(parent.accBegin, childBegin, limits.maxCount, child.uplink,
                         limits.ceiling);
    }
    void placeSkip(const SweepFrame<QosInput>& node) {
      streamer.clearCandidates();
      for (std::size_t k = node.accBegin; k < streamer.top(); ++k) {
        const QosFrontierEntry e{streamer.countAt(k), streamer.flowAt(k),
                                 streamer.slackAt(k)};
        streamer.addCandidate(e.count, e.flow, e.slack);
        if (policy.placeable(e, node.input.limit)) {
          const QosFrontierEntry p = ClosestQosStep::placed(e, 0);
          streamer.addCandidate(p.count, p.flow, p.slack);
        }
      }
      const FrontierLimits limits = policy.chain(node.shape);
      streamer.commitPruned(node.accBegin, limits.maxCount, limits.ceiling);
    }
  };
  QosFrontierStreamer streamer(options);
  Stream stream{streamer, ClosestQosStep(instance, W)};
  return sweepStreamingCount(instance.tree, streamer, stream, options.guard);
}

}  // namespace treeplace
