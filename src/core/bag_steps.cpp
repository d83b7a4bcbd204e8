#include "core/bag_steps.hpp"

#include "support/require.hpp"

namespace treeplace {

Requests homogeneousStepCapacity(const ProblemInstance& instance) {
  instance.validate();
  const Requests W = instance.homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");
  return W;
}

FrontierSpan ClosestStep::placeSkip(FrontierConvolver& conv, FrontierSpan acc, VertexId,
                                    const BagShape&) const {
  FrontierArena& arena = conv.arena();
  const std::uint32_t begin = arena.beginSpan();
  if (!acc.empty()) {
    const FrontierEntry e = arena.at(acc, 0);  // copy: the pushes may grow the slab
    arena.push({e.count, e.flow, 0, 0});
    if (placeable(e)) arena.push(placed(e, 0));
  }
  const FrontierSpan out = arena.endSpan(begin);
  conv.noteWidth(out.size);
  return out;
}

std::int32_t FlowStep::rootEntry(const FrontierArena& arena, FrontierSpan root) {
  if (root.empty() || arena.at(root, root.size - 1).flow != 0) return -1;
  return static_cast<std::int32_t>(root.size - 1);
}

FrontierSpan MultipleStep::absorbPlaceSkip(FrontierConvolver& conv, FrontierSpan acc,
                                           Requests capacity,
                                           const FrontierLimits& limits,
                                           std::vector<FrontierEntry>& options) {
  const FrontierArena& arena = conv.arena();
  options.clear();
  for (std::size_t k = 0; k < acc.size; ++k) {
    const FrontierEntry e = arena.at(acc, k);
    const auto ki = static_cast<std::int32_t>(k);
    options.push_back({e.count, e.flow, ki, 0});
    if (placeable(e, capacity)) options.push_back(placed(e, ki, capacity));
  }
  return conv.pruneCandidates(options, limits.maxCount, limits.ceiling);
}

FrontierSpan ClosestQosStep::placeSkip(QosFrontierSweep& sweep, FrontierSpan acc,
                                       VertexId anchor, const BagShape& b) const {
  const QosFrontierArena& arena = sweep.arena();
  const Requests ceiling = chain(b).ceiling;
  if (acc.empty()) {
    sweep.begin(0, -1, ceiling);
    return sweep.emit();
  }
  // acc is count-ascending: the options span [front, back + 1].
  sweep.begin(arena.at(acc, 0).count, arena.at(acc, acc.size - 1).count + 1, ceiling);
  const double compTime = instance->compTime[static_cast<std::size_t>(anchor)];
  for (std::size_t k = 0; k < acc.size; ++k) {
    const QosFrontierEntry e = arena.at(acc, k);
    const auto ki = static_cast<std::int32_t>(k);
    sweep.add({e.count, e.flow, e.slack, ki, 0});
    if (placeable(e, compTime)) sweep.add(placed(e, ki));
  }
  return sweep.emit();
}

std::int32_t ClosestQosStep::rootEntry(const QosFrontierArena& arena, FrontierSpan root) {
  for (std::size_t k = 0; k < root.size; ++k)
    if (arena.at(root, k).flow == 0) return static_cast<std::int32_t>(k);
  return -1;
}

}  // namespace treeplace
