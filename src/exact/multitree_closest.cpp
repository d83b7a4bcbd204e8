#include "exact/multitree_closest.hpp"

#include <functional>
#include <limits>

#include "core/bag_steps.hpp"
#include "core/frontier_cache.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr std::int32_t kInfeasibleCost = std::numeric_limits<std::int32_t>::max();
/// Safety valve on the gateway branch-and-bound: stop (stats.exhausted) once
/// this many DFS nodes were expanded. It covers every practical gateway
/// count (2^g leaves for g gateways).
constexpr std::size_t kMaxDfsNodes = std::size_t{1} << 22;

/// The constrained Closest DP of one member tree: ConstrainedClosestStep
/// (core/bag_steps) driven by a FrontierCache with combo tables. A state
/// flip stamps the vertex and its root path, so a probe recomputes O(depth)
/// bags, and prefix reuse re-runs only the flipped bag's place/skip plus
/// one chain suffix per ancestor. Nothing is reconstructed: the final
/// replica set is exactly the forced set, so the DP only ever answers "what
/// is the cheapest completion".
class MemberDp {
 public:
  MemberDp(const ProblemInstance& instance, MultitreeSolveStats& stats)
      : cache_(instance.tree, true),
        step_(instance, instance.homogeneousCapacity()),
        stats_(&stats) {}

  void setState(VertexId v, NodeState next) {
    auto& current = step_.state[static_cast<std::size_t>(v)];
    if (current == next) return;
    current = next;
    cache_.stamp({&v, 1});
  }

  /// Cheapest cost-weighted replica count serving every client of the tree
  /// under the current constraints, or kInfeasibleCost.
  std::int32_t resolve() {
    if (cache_.stale()) {
      ++stats_->dpResolves;
      const std::size_t misses = cache_.stats().misses;
      cache_.refresh(step_, nullptr);
      stats_->dirtyRecomputes += cache_.stats().misses - misses;
      const FrontierSpan root = cache_.frontier(step_.instance->tree.root());
      const std::int32_t entry = FlowStep::rootEntry(cache_.arena(), root);
      cached_ = entry < 0 ? kInfeasibleCost
                          : cache_.arena().at(root, static_cast<std::size_t>(entry)).count;
    }
    return cached_;
  }

 private:
  FrontierCache<FrontierEntry> cache_;
  ConstrainedClosestStep step_;
  MultitreeSolveStats* stats_;
  std::int32_t cached_ = kInfeasibleCost;
};

}  // namespace

MultitreeSolveResult solveMultitreeClosest(const MultitreeInstance& instance) {
  instance.validate();
  MultitreeSolveResult result;
  MultitreeSolveStats& stats = result.stats;
  const auto g = static_cast<int>(instance.sharedCount);
  const std::size_t treeCount = instance.treeCount();

  std::vector<MemberDp> dps;
  dps.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) dps.emplace_back(instance.trees[t], stats);

  const auto setGateway = [&](VertexId gateway, NodeState state) {
    for (std::size_t t = 0; t < treeCount; ++t)
      if (instance.contains(t, gateway))
        dps[t].setState(instance.localId(t, gateway), state);
  };
  for (VertexId gw = 0; gw < g; ++gw) setGateway(gw, NodeState::FreeZero);

  // inCount gateways are decided-in: total = inCount + per-tree private
  // optima. With undecided gateways relaxed to FreeZero this lower-bounds
  // every completion; with all gateways decided it is exact.
  const auto total = [&](std::int32_t inCount) -> std::int32_t {
    std::int64_t sum = inCount;
    for (auto& dp : dps) {
      const std::int32_t r = dp.resolve();
      if (r == kInfeasibleCost) return kInfeasibleCost;
      sum += r;
    }
    return static_cast<std::int32_t>(sum);
  };

  // Phase A: branch-and-bound over gateway in/out for the optimum size m*.
  std::int32_t best = kInfeasibleCost;
  std::vector<std::uint8_t> bestIn(static_cast<std::size_t>(g), 0);
  std::vector<std::uint8_t> currentIn(static_cast<std::size_t>(g), 0);
  const std::function<void(int, std::int32_t)> dfsOptimum =
      [&](int i, std::int32_t inCount) {
        if (stats.dfsNodes >= kMaxDfsNodes) {
          stats.exhausted = true;
          return;
        }
        ++stats.dfsNodes;
        const std::int32_t lb = total(inCount);
        if (lb >= best) return;  // covers infeasible subtrees too
        if (i == g) {
          best = lb;
          bestIn = currentIn;
          return;
        }
        currentIn[static_cast<std::size_t>(i)] = 0;
        setGateway(i, NodeState::Forbidden);
        dfsOptimum(i + 1, inCount);
        currentIn[static_cast<std::size_t>(i)] = 1;
        setGateway(i, NodeState::ForcedZero);
        dfsOptimum(i + 1, inCount + 1);
        setGateway(i, NodeState::FreeZero);
      };
  dfsOptimum(0, 0);
  if (best == kInfeasibleCost) return result;  // infeasible (or valve tripped dry)
  const std::int32_t target = best;

  // Phase B: gateway lexico scan. Accept the smallest ids first: gateway v
  // joins the forced set F iff some completion of F + {v} still reaches m*.
  // A rejected id can never re-enter a later conditional optimum (rejection
  // is monotone in F), so it is soundly Forbidden from here on.
  std::vector<std::uint8_t> accepted(static_cast<std::size_t>(g), 0);
  std::int32_t acceptedShared = 0;
  const auto adoptBestLeaf = [&]() {
    acceptedShared = 0;
    for (VertexId gw = 0; gw < g; ++gw) {
      accepted[static_cast<std::size_t>(gw)] = bestIn[static_cast<std::size_t>(gw)];
      setGateway(gw, bestIn[static_cast<std::size_t>(gw)] ? NodeState::ForcedZero
                                                          : NodeState::Forbidden);
      acceptedShared += bestIn[static_cast<std::size_t>(gw)];
    }
  };
  if (stats.exhausted) {
    adoptBestLeaf();
  } else {
    const std::function<bool(int, std::int32_t)> achievesTarget =
        [&](int i, std::int32_t inCount) -> bool {
      if (stats.dfsNodes >= kMaxDfsNodes) {
        stats.exhausted = true;
        return false;
      }
      ++stats.dfsNodes;
      const std::int32_t lb = total(inCount);
      if (lb > target) return false;  // conditional minima never undershoot m*
      if (i == g) return lb == target;
      setGateway(i, NodeState::Forbidden);
      if (achievesTarget(i + 1, inCount)) {
        setGateway(i, NodeState::FreeZero);
        return true;
      }
      setGateway(i, NodeState::ForcedZero);
      const bool viaIn = achievesTarget(i + 1, inCount + 1);
      setGateway(i, NodeState::FreeZero);
      return viaIn;
    };
    for (VertexId gw = 0; gw < g && !stats.exhausted; ++gw) {
      ++stats.lexicoTests;
      setGateway(gw, NodeState::ForcedZero);
      if (achievesTarget(gw + 1, acceptedShared + 1)) {
        accepted[static_cast<std::size_t>(gw)] = 1;
        ++acceptedShared;
      } else {
        setGateway(gw, NodeState::Forbidden);
      }
    }
    if (stats.exhausted) adoptBestLeaf();
  }
  TREEPLACE_REQUIRE(total(acceptedShared) == target,
                    "gateway scan lost the multitree optimum");

  // Phase C: private lexico scan, ascending global id. All cross-tree
  // coupling is settled, so each probe touches exactly one member tree and
  // re-resolves only the root path of the probed vertex. Once |F| == m* the
  // remaining ids are provably rejectable — forcing any would overshoot.
  std::vector<VertexId> replicas;
  for (VertexId gw = 0; gw < g; ++gw)
    if (accepted[static_cast<std::size_t>(gw)]) replicas.push_back(gw);
  for (const VertexId v : instance.globalInternals()) {
    if (static_cast<std::int32_t>(replicas.size()) == target) break;
    if (instance.isShared(v)) continue;
    std::size_t owner = treeCount;
    for (std::size_t t = 0; t < treeCount; ++t)
      if (instance.contains(t, v)) {
        owner = t;
        break;
      }
    const VertexId local = instance.localId(owner, v);
    ++stats.lexicoTests;
    dps[owner].setState(local, NodeState::Forced);
    if (total(acceptedShared) == target)
      replicas.push_back(v);
    else
      dps[owner].setState(local, NodeState::Free);
  }
  TREEPLACE_REQUIRE(static_cast<std::int32_t>(replicas.size()) == target,
                    "lexicographic scan failed to reproduce the optimum");

  MultitreePlacement placement;
  placement.replicas = std::move(replicas);
  placement.perTree.reserve(treeCount);
  for (std::size_t t = 0; t < treeCount; ++t) {
    Placement p(instance.trees[t].tree.vertexCount());
    for (const VertexId r : placement.replicas)
      if (instance.contains(t, r)) p.addReplica(instance.localId(t, r));
    assignClientsToClosest(instance.trees[t], p);
    placement.perTree.push_back(std::move(p));
  }
  result.feasible = true;
  result.placement = std::move(placement);
  return result;
}

}  // namespace treeplace
