#include "exact/closest_qos.hpp"

#include <limits>

#include "core/frontier.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr double kInfiniteSlack = std::numeric_limits<double>::infinity();

}  // namespace

FrontierSpan qosPlaceSkip(QosFrontierSweep& sweep, const QosFrontierArena& arena,
                          FrontierSpan acc, Requests W, double compTime) {
  if (acc.empty()) {
    sweep.begin(0, -1, W);
    return sweep.emit();
  }
  // acc is count-ascending: the options span [front, back + 1].
  sweep.begin(arena.at(acc, 0).count, arena.at(acc, acc.size - 1).count + 1, W);
  for (std::size_t k = 0; k < acc.size; ++k) {
    const QosFrontierEntry e = arena.at(acc, k);
    sweep.add({e.count, e.flow, e.slack, static_cast<std::int32_t>(k), 0});
    if (e.flow <= W && e.slack >= compTime - 1e-9)
      sweep.add({e.count + 1, 0, kInfiniteSlack, static_cast<std::int32_t>(k), 1});
  }
  return sweep.emit();
}

std::optional<Placement> solveClosestHomogeneousQos(const ProblemInstance& instance,
                                                    FrontierStats* stats,
                                                    BudgetGuard* guard) {
  instance.validate();
  const Requests W = instance.homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");
  const Tree& tree = instance.tree;
  const std::size_t n = tree.vertexCount();

  QosFrontierArena arena;
  arena.reset(4 * n);
  QosFrontierSweep sweep(arena);
  const TreeDecomposition decomp(tree);
  BasicFrontierDp<QosFrontierEntry> dp(decomp, arena);

  const auto publishStats = [&] {
    if (stats != nullptr) {
      sweep.noteArenaUsage();
      *stats = sweep.stats();
    }
  };

  for (const BagId v : decomp.schedule()) {
    if (guard != nullptr) guard->checkpoint();
    const auto vi = static_cast<std::size_t>(decomp.anchor(v));
    if (decomp.anchorIsClient(v)) {
      // Slack measured at the client itself; its uplink comm is charged when
      // the entry moves into the parent below.
      const Requests r = instance.requests[vi];
      dp.seedClient(v, {0, r, r > 0 ? instance.qos[vi] : kInfiniteSlack, -1, -1});
      continue;
    }

    // Replica counts in the bag's cone never exceed its internal-node count,
    // so that bounds every convolution at this node.
    const auto countCap = static_cast<std::int32_t>(decomp.internalsInCone(v));

    // Convolve child bags: each child's frontier first pays its uplink comm.
    // Candidates go straight into the count-bucketed sweep — no temporary
    // cross-product vector, no sort. One replica serves whatever the bag
    // sends up, so states above W are dead and never stored.
    std::uint32_t accBegin = arena.beginSpan();
    arena.push({0, 0, kInfiniteSlack, -1, -1});
    FrontierSpan acc = arena.endSpan(accBegin);
    const auto children = decomp.mergeChildren(v);
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      const BagId child = children[ci];
      const double uplink =
          instance.commTime[static_cast<std::size_t>(decomp.anchor(child))];
      acc = sweep.convolve(acc, dp.frontier(child), countCap, uplink, W);
      if (acc.empty()) {
        publishStats();
        return std::nullopt;  // some child has no live state
      }
      dp.setCombo(v, ci, acc);
    }
    dp.setFrontier(v, qosPlaceSkip(sweep, arena, acc, W, instance.compTime[vi]));
  }

  publishStats();

  // The pruned frontier holds at most one zero-flow entry (two would dominate
  // one another through their infinite slack), and it is the cheapest one.
  const FrontierSpan rootSpan = dp.frontier(decomp.rootBag());
  std::int32_t bestIdx = -1;
  for (std::size_t k = 0; k < rootSpan.size; ++k) {
    if (arena.at(rootSpan, k).flow == 0) {
      bestIdx = static_cast<std::int32_t>(k);
      break;
    }
  }
  if (bestIdx < 0) return std::nullopt;

  Placement placement(n);
  dp.reconstruct(bestIdx,
                 [&placement](VertexId node) { placement.addReplica(node); });

  assignClientsToClosest(instance, placement);
  return placement;
}

StreamCountResult countClosestQosStreaming(const ProblemInstance& instance,
                                           const FrontierStreamOptions& options) {
  instance.validate();
  const Requests W = instance.homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");

  struct QosInput {
    Requests request;
    double limit;   ///< client: QoS bound q_i; internal: computation time
    double uplink;  ///< comm time of the link to the parent
  };
  // The exact solver's recurrence on the preorder sweep. A fold can kill
  // every state (some client unreachable in time, or more than W sent up):
  // the sweep then stops, infeasible.
  struct Step {
    QosFrontierStreamer& streamer;
    const ProblemInstance& instance;
    Requests W;

    QosInput gather(VertexId v, bool client) const {
      const auto vi = static_cast<std::size_t>(v);
      return client ? QosInput{instance.requests[vi], instance.qos[vi], instance.commTime[vi]}
                    : QosInput{0, instance.compTime[vi], instance.commTime[vi]};
    }
    // Slack is measured at the client; the uplink is charged by the fold.
    void seed(const QosInput& client) {
      streamer.pushEntry(0, client.request,
                         client.request > 0 ? client.limit : kInfiniteSlack);
    }
    void fold(const SweepFrame<QosInput>& parent, std::size_t childBegin,
              const QosInput& child) {
      streamer.foldChild(parent.accBegin, childBegin, parent.internals, child.uplink, W);
    }
    void placeSkip(const SweepFrame<QosInput>& node) {
      streamer.clearCandidates();
      for (std::size_t k = node.accBegin; k < streamer.top(); ++k) {
        const std::int32_t c = streamer.countAt(k);
        const Requests f = streamer.flowAt(k);
        const double s = streamer.slackAt(k);
        streamer.addCandidate(c, f, s);
        if (f <= W && s >= node.input.limit - 1e-9)
          streamer.addCandidate(c + 1, 0, kInfiniteSlack);
      }
      streamer.commitPruned(node.accBegin, node.internals, W);
    }
  };
  QosFrontierStreamer streamer(options);
  Step step{streamer, instance, W};
  return sweepStreamingCount(instance.tree, streamer, step, options.guard);
}

}  // namespace treeplace
