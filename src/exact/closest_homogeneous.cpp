#include "exact/closest_homogeneous.hpp"

#include "core/bag_steps.hpp"
#include "core/frontier_cache.hpp"

namespace treeplace {

std::optional<Placement> solveClosestHomogeneous(const ProblemInstance& instance,
                                                 FrontierStats* stats,
                                                 BudgetGuard* guard) {
  const Requests W = homogeneousStepCapacity(instance);
  Placement placement(instance.tree.vertexCount());
  if (!solveCold(instance.tree, ClosestStep(instance, W), stats, guard,
                 [&placement](VertexId node) { placement.addReplica(node); }))
    return std::nullopt;
  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestHomogeneousStreaming(
    const ProblemInstance& instance, const FrontierStreamOptions& options) {
  ClosestStep step(instance, homogeneousStepCapacity(instance));
  return sweepStreamingCount(instance.tree, step, options);
}

}  // namespace treeplace
