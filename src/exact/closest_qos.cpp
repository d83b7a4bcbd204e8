#include "exact/closest_qos.hpp"

#include "core/bag_steps.hpp"
#include "core/frontier_cache.hpp"

namespace treeplace {

std::optional<Placement> solveClosestHomogeneousQos(const ProblemInstance& instance,
                                                    FrontierStats* stats,
                                                    BudgetGuard* guard) {
  const Requests W = homogeneousStepCapacity(instance);
  Placement placement(instance.tree.vertexCount());
  if (!solveCold(instance.tree, ClosestQosStep(instance, W), stats, guard,
                 [&placement](VertexId node) { placement.addReplica(node); }))
    return std::nullopt;
  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestQosStreaming(const ProblemInstance& instance,
                                           const FrontierStreamOptions& options) {
  ClosestQosStep step(instance, homogeneousStepCapacity(instance));
  return sweepStreamingCount(instance.tree, step, options);
}

}  // namespace treeplace
