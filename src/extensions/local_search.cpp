#include "extensions/local_search.hpp"

#include <algorithm>

#include "support/require.hpp"

namespace treeplace {
namespace {

/// Improving rounds improvePlacement applies at most.
constexpr int kMaxRounds = 100;

/// One planned reassignment of retargetToServer.
struct Move {
  VertexId client;
  VertexId from;
  Requests amount;
};

/// Scratch buffers shared by every candidate move of one improvePlacement
/// call, so steady-state enumeration reuses their capacity.
struct MoveScratch {
  std::vector<ServedShare> run;
  std::vector<Move> moves;
};

/// Try to close server `victim`: redistribute each of its shares to other
/// replicas on the owning client's root path with spare capacity. Returns
/// the repaired placement, or nullopt if some share cannot be rehomed.
/// Candidate placements are acquired from (and handed back to) `arena`, so
/// the whole move enumeration recycles one set of buffers.
std::optional<Placement> dropServer(const ProblemInstance& instance,
                                    const Placement& placement, VertexId victim,
                                    PlacementArena& arena, MoveScratch& scratch) {
  const Tree& tree = instance.tree;
  Placement next = arena.acquire(tree.vertexCount());
  for (const VertexId r : tree.internals())
    if (r != victim && placement.hasReplica(r)) next.addReplica(r);

  // Copy all assignments not owned by the victim, one run per client.
  std::vector<ServedShare>& run = scratch.run;
  for (const VertexId client : tree.clients()) {
    run.clear();
    for (const ServedShare& share : placement.shares(client))
      if (share.server != victim) run.push_back(share);
    next.assignRun(client, run);
  }
  // Rehome the victim's shares greedily, closest surviving replica first.
  for (const VertexId client : tree.clients()) {
    for (const ServedShare& share : placement.shares(client)) {
      if (share.server != victim) continue;
      Requests rest = share.amount;
      for (VertexId hop = tree.parent(client); hop != kNoVertex && rest > 0;
           hop = tree.parent(hop)) {
        if (!next.hasReplica(hop)) continue;
        const Requests spare =
            instance.capacity[static_cast<std::size_t>(hop)] - next.serverLoad(hop);
        if (spare <= 0) continue;
        const Requests take = std::min(rest, spare);
        next.assign(client, hop, take);
        rest -= take;
      }
      if (rest > 0) {  // victim is load-bearing
        arena.recycle(std::move(next));
        return std::nullopt;
      }
    }
  }
  return next;
}

/// Retarget requests of subtree(candidate)'s clients onto `candidate`.
/// `fromAbove` pulls load served strictly above it (cuts read distance);
/// otherwise load served strictly below is pulled up (consolidates replicas,
/// cutting storage/write cost once the sources drain empty).
std::optional<Placement> retargetToServer(const ProblemInstance& instance,
                                          const Placement& placement,
                                          VertexId candidate, bool fromAbove,
                                          PlacementArena& arena,
                                          MoveScratch& scratch) {
  const Tree& tree = instance.tree;
  Requests spare = instance.capacity[static_cast<std::size_t>(candidate)] -
                   placement.serverLoad(candidate);
  if (spare <= 0) return std::nullopt;

  // Collect the moves first, then build a fresh placement (shares cannot be
  // removed in place).
  std::vector<Move>& moves = scratch.moves;
  moves.clear();
  for (const VertexId client : tree.clientsInSubtree(candidate)) {
    for (const ServedShare& share : placement.shares(client)) {
      if (spare == 0) break;
      if (share.server == candidate) continue;
      const bool servedAbove = tree.isAncestor(share.server, candidate);
      if (servedAbove != fromAbove) continue;
      const Requests take = std::min(share.amount, spare);
      moves.push_back({client, share.server, take});
      spare -= take;
    }
  }
  if (moves.empty()) return std::nullopt;

  Placement rebuilt = arena.acquire(tree.vertexCount());
  for (const VertexId r : tree.internals())
    if (placement.hasReplica(r)) rebuilt.addReplica(r);
  rebuilt.addReplica(candidate);
  std::vector<ServedShare>& run = scratch.run;
  for (const VertexId client : tree.clients()) {
    run.clear();
    for (const ServedShare& share : placement.shares(client)) {
      Requests amount = share.amount;
      for (const Move& move : moves)
        if (move.client == client && move.from == share.server) amount -= move.amount;
      if (amount > 0) run.push_back({share.server, amount});
    }
    rebuilt.assignRun(client, run);
  }
  for (const Move& move : moves) rebuilt.assign(move.client, candidate, move.amount);
  return rebuilt;
}

/// Drop replicas that ended up with zero load (cost for nothing).
void pruneUnused(const ProblemInstance& instance, Placement& placement,
                 PlacementArena& arena) {
  Placement cleaned = arena.acquire(instance.tree.vertexCount());
  for (const VertexId client : instance.tree.clients())
    cleaned.assignRun(client, placement.shares(client));
  for (const VertexId r : instance.tree.internals())
    if (placement.hasReplica(r) && cleaned.serverLoad(r) > 0) cleaned.addReplica(r);
  Placement retired = std::move(placement);
  placement = std::move(cleaned);
  arena.recycle(std::move(retired));
}

}  // namespace

LocalSearchResult improvePlacement(const ProblemInstance& instance, Placement start,
                                   const CostModel& model) {
  PlacementArena arena;
  MoveScratch scratch;
  pruneUnused(instance, start, arena);
  LocalSearchResult result{std::move(start), 0.0, 0};
  result.objective = compositeObjective(instance, result.placement, model);

  for (int round = 0; round < kMaxRounds; ++round) {
    bool improved = false;

    for (const VertexId victim : result.placement.replicaList()) {
      auto next = dropServer(instance, result.placement, victim, arena, scratch);
      if (!next) continue;
      const double objective = compositeObjective(instance, *next, model);
      if (objective < result.objective - 1e-9) {
        arena.recycle(std::move(result.placement));
        result.placement = std::move(*next);
        result.objective = objective;
        improved = true;
        break;  // first improvement; re-enumerate moves
      }
      arena.recycle(std::move(*next));
    }
    if (!improved) {
      // Both directions: pull from above (read savings) and from below
      // (consolidation — the drained servers are pruned, saving storage and
      // shrinking the update subtree).
      for (const bool fromAbove : {true, false}) {
        for (const VertexId candidate : instance.tree.internals()) {
          if (fromAbove && result.placement.hasReplica(candidate)) continue;
          auto next = retargetToServer(instance, result.placement, candidate,
                                       fromAbove, arena, scratch);
          if (!next) continue;
          pruneUnused(instance, *next, arena);
          const double objective = compositeObjective(instance, *next, model);
          if (objective < result.objective - 1e-9) {
            arena.recycle(std::move(result.placement));
            result.placement = std::move(*next);
            result.objective = objective;
            improved = true;
            break;
          }
          arena.recycle(std::move(*next));
        }
        if (improved) break;
      }
    }
    if (!improved) break;
    ++result.rounds;
  }
  return result;
}

}  // namespace treeplace
