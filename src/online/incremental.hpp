#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "core/bounds.hpp"
#include "core/frontier_cache.hpp"
#include "core/placement.hpp"
#include "online/delta.hpp"
#include "support/budget.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// The homogeneous exact solvers the incremental engine can mirror. Policy
/// (core/policy) names the paper's access policies; this names concrete DP
/// *solvers* — Closest+QoS is the same access policy as Closest with the
/// 3-D QoS frontier DP underneath, hence its own entry.
enum class OnlinePolicy : std::uint8_t {
  Closest,     ///< exact/closest_homogeneous frontier DP
  Multiple,    ///< exact/multiple_homogeneous frontier DP
  ClosestQos,  ///< exact/closest_qos 3-D frontier DP
};

constexpr std::string_view toString(OnlinePolicy policy) {
  switch (policy) {
    case OnlinePolicy::Closest: return "Closest";
    case OnlinePolicy::Multiple: return "Multiple";
    case OnlinePolicy::ClosestQos: return "ClosestQos";
  }
  return "?";
}

/// The one-shot exact solver `policy` names: the frontier DP an incremental
/// solve is bit-identical to (for Multiple that is solveMultipleHomogeneousDP,
/// not the 3-pass greedy). `guard` is ticked once per bag, as in
/// solveClosestHomogeneous.
std::optional<Placement> solveOneShot(const ProblemInstance& instance,
                                      OnlinePolicy policy, BudgetGuard* guard = nullptr);

namespace detail {

/// One of IncrementalSolver's two incumbent buffers (defined with the solver).
struct IncumbentBuffer;

}  // namespace detail

/// Incremental re-optimization engine for the polynomial homogeneous solvers
/// (Closest, Multiple via the frontier DP, Closest+QoS).
///
/// The solver owns one FrontierCache (core/frontier_cache), with combo
/// tables: every subtree's Pareto frontier and the prefix convolutions the
/// reconstruction walk needs, in a persistent arena. A mutation opens an
/// epoch and stamps only the touched vertices and their root paths, so a
/// re-solve recomputes O(depth) frontiers instead of O(s) and reuses
/// everything else. A homogeneous W change stamps only the bags whose
/// subtree demand exceeds the smaller W; the solver keeps every vertex's
/// subtree demand current along the root paths of the rate changes. A
/// one-shot solve is the same cache cold — every bag stale, refreshed once
/// through the same bag step (core/bag_steps) and reconstructed by the same
/// backpointer walk, to which this solver only adds its memo prune — so
/// every recomputed frontier and the incremental placement are bit-identical
/// to a from-scratch solve after every step; the equivalence tests pin this
/// down per policy.
///
/// The instance is shared with the caller (scratch comparisons and the
/// mutation driver read it); it must outlive the solver and mutate only
/// through apply().
class IncrementalSolver {
 public:
  IncrementalSolver(ProblemInstance& instance, OnlinePolicy policy);

  OnlinePolicy policy() const { return policy_; }

  /// Apply one mutation to the shared instance and invalidate the affected
  /// subtree caches (touched vertices + root paths, O(depth) stamps).
  DeltaApplication apply(const InstanceDelta& delta);

  /// TEST HOOK: apply the instance edit but skip cache invalidation. This
  /// deliberately breaks the dirty-closure invariant — the cache-poisoning
  /// test uses it to prove a too-small dirty set yields a stale answer.
  /// Structural deltas are invalidated normally (the grown tables need their
  /// stamps to stay in bounds); only value deltas skip the stamps (and the
  /// update of W a capacity change would trigger). Subtree demands still
  /// follow every rate change.
  DeltaApplication applyWithoutInvalidation(const InstanceDelta& delta);

  /// Re-solve from the caches: recompute dirty subtree frontiers bottom-up,
  /// reuse clean ones, reconstruct the placement through the cached
  /// backpointers. Null when the mutated instance is infeasible.
  ///
  /// The result is an immutable snapshot that stays valid, and unchanged,
  /// for as long as the caller keeps it — the solver never writes a
  /// published placement again. A resolve with nothing to change returns the
  /// previous snapshot itself (O(1)). Otherwise the step repairs a back
  /// buffer — the snapshot before last, brought level by replaying the last
  /// step's journal of replica flips and reassigned clients — and publishes
  /// it: O(changed), unless the caller still holds that older snapshot, in
  /// which case one full copy replaces it (cacheStats().snapshotCopies).
  ///
  /// `guard`, when non-null, is ticked once per recomputed vertex and throws
  /// SolveInterrupted on a trip. The checkpoint fires BEFORE a vertex is
  /// stamped, so an interrupted resolve leaves every cache exact and the
  /// pending dirty set intact — a later resolve (with or without budget)
  /// simply continues from where the interrupted one stopped.
  ///
  /// Any other mid-resolve failure (an allocation fault inside arena growth,
  /// a repair invariant trip on a poisoned cache) is self-healing: the solver
  /// drops every cache and the incumbent assignment, re-solves the same
  /// instance from scratch once (counted in cacheStats().scratchFallbacks),
  /// and only rethrows if the scratch pass fails too — a fault costs latency,
  /// never a wrong placement. A fault mid-repair damages only the back
  /// buffer, which the fallback drops; published snapshots stay intact.
  std::shared_ptr<const Placement> resolve(BudgetGuard* guard = nullptr);

  const FrontierCacheStats& cacheStats() const { return cache().stats(); }

  /// Multiple only: the incumbent's (client, amount) takes of `server`, in
  /// client scan order — the per-replica state the assignment repair edits.
  /// Empty for a vertex without a replica, and for the other policies.
  std::span<const std::pair<VertexId, Requests>> serverTakes(VertexId server) const;

 private:
  /// The policy's cache: 2-D entries for Closest/Multiple, 3-D for QoS.
  using Cache = std::variant<FrontierCache<FrontierEntry>, FrontierCache<QosFrontierEntry>>;

  FrontierCacheBase& cache();
  const FrontierCacheBase& cache() const;
  void noteDelta(const DeltaApplication& app);
  /// A homogeneous W change: stamp the bags where W binds (see the .cpp) and
  /// take the new W from the delta.
  void noteCapacityChange(const DeltaApplication& app);
  /// The internals whose subtree demand exceeds `binds`, parents first, into
  /// walkScratch_: the set is closed under parents, so a walk down from the
  /// root finds it in O(set).
  const std::vector<VertexId>& demandAbove(Requests binds);
  /// Subtree demands from scratch: one postorder pass.
  void recomputeDemand();
  /// Fold the rate changes of `clients` (demand_ still holds their old
  /// rates) into the subtree demands of their root paths, O(union of the
  /// paths).
  void foldDemand(std::span<const VertexId> clients);
  /// One resolve attempt through the policy's bag step (resolve() adds the
  /// scratch fallback).
  std::shared_ptr<const Placement> resolveOnce(BudgetGuard* guard);
  template <class Step>
  std::shared_ptr<const Placement> resolveWith(FrontierCache<typename Step::Entry>& cache,
                                               Step step, BudgetGuard* guard);
  /// Drop every cache, the pending dirty bookkeeping, and both incumbent
  /// buffers — back to the just-constructed state against the current
  /// instance. The scratch-fallback path of resolve().
  void invalidateCaches();
  /// W for the place folds and the Multiple repair. A global capacity change
  /// carries its new W. homogeneousCapacity() scans every internal vertex
  /// (it also rejects a heterogeneous instance), so it runs only when the
  /// instance may have gone heterogeneous: after construction, a scratch
  /// fallback, a per-node capacity change or a pod with another W.
  Requests foldCapacity();
  /// Size the per-vertex scratch tables to the tree (geometric growth).
  void growVertexTables();
  /// Persistent-assignment maintenance after a feasible reconstruct: either a
  /// full rebuild (first solve, scratch fallback) or an O(changed) repair
  /// driven by the replica-bit flips the walk collected, the clients whose
  /// rates mutated — appended clients included, as 0 -> r changes — and, for
  /// Multiple, a W that moved since the incumbent was built.
  void refreshClosestAssignment(const std::vector<char>& replicaBit);
  void refreshMultipleAssignment(const std::vector<char>& replicaBit);
  /// The repairs write `placement` (the levelled back buffer) and return the
  /// clients whose shares they may have changed: the step's journal.
  std::vector<VertexId> repairClosestAssignment(const std::vector<char>& replicaBit,
                                                Placement& placement);
  std::vector<VertexId> repairMultipleAssignment(const std::vector<char>& replicaBit,
                                                 Placement& placement);
  /// Clients as (preorder position, client), sorted: scan order.
  using ScanList = std::vector<std::pair<std::int32_t, VertexId>>;
  /// One replica's turn in the Multiple repair (see the .cpp): edit its
  /// takes for the changed clients `delta` holds in its subtree, move its
  /// absorption boundary under budget W, and write the changed pairs, each
  /// client appended to `changed`. `added`: the replica is new.
  void repairServer(VertexId server, Requests W, bool added, const ScanList& delta,
                    Placement& placement, std::vector<VertexId>& changed);
  /// Requests of `client` not served strictly below `server` (an ancestor of
  /// the client): its residual at the server's greedy turn. O(shares).
  Requests residualAt(const Placement& placement, VertexId client, VertexId server) const;
  /// The back buffer, made equal to the published snapshot: by replaying the
  /// journal in place, or by one full copy when a caller still holds it or
  /// the journal does not cover the difference. Grown to the tree's current
  /// vertex count either way.
  Placement& levelBackBuffer();
  /// Swap the repaired back buffer in as the published snapshot; `touched`
  /// (plus flips_) becomes the journal the next step replays.
  void publishRepaired(std::vector<VertexId>&& touched);
  /// Publish a wholesale rebuild; the next step levels by a full copy.
  void publishRebuilt(Placement&& fresh);

  ProblemInstance* instance_;
  OnlinePolicy policy_;
  Cache cache_;
  /// W, as last derived or taken from a global capacity change; every clean
  /// cached frontier is the one this W gives.
  Requests capacity_ = 0;
  bool capacityStale_ = true;  ///< the instance may no longer be homogeneous at capacity_
  /// Subtree demand D per vertex: a client's rate as last folded in, an
  /// internal's sum over its clients. Kept exact through every delta.
  std::vector<Requests> demand_;
  std::vector<VertexId> walkScratch_;        ///< foldDemand's paths, the W-change walk
  std::vector<std::size_t> segmentScratch_;  ///< foldDemand's path segment starts

  /// Reconstruction memo: the entry index the last backpointer walk chose at
  /// each vertex, the epoch of that walk, and the resulting replica bit. A
  /// walk that reaches a vertex with the same entry index and no mutation in
  /// its subtree since (chosenEpoch >= dirtySince) skips the whole subtree —
  /// its bits are still exact.
  std::vector<std::int32_t> chosenEntry_;
  std::vector<std::uint64_t> chosenEpoch_;
  std::vector<char> replicaBit_;
  /// Clients whose request rate changed since the last *successful* repair
  /// (infeasible steps leave the incumbent assignment untouched, so their
  /// changes carry forward until a feasible step consumes them).
  std::vector<VertexId> pendingChangedClients_;
  std::vector<VertexId> flips_;  ///< replica bits flipped by the last walk

  /// The incumbent assignment, double-buffered: front_ is the published
  /// snapshot (never written again), back_ the one before it, which the next
  /// step levels with front_ by replaying the journal (the last step's
  /// replica flips and reassigned clients), repairs in place and swaps in.
  std::shared_ptr<detail::IncumbentBuffer> front_;
  std::shared_ptr<detail::IncumbentBuffer> back_;
  /// front_'s placement as handed to callers; holding it keeps front_->held.
  std::shared_ptr<const Placement> published_;
  std::vector<VertexId> journalFlips_;
  std::vector<VertexId> journalClients_;
  bool backStale_ = true;  ///< back_ differs from front_ beyond the journal
  bool assignRebuildNeeded_ = true;
  /// Per-server absorption lists of the incumbent Multiple assignment:
  /// (client, amount) per share, in client scan order. Every take but the
  /// last is the client's whole residual at the server's turn. Maintained
  /// only for OnlinePolicy::Multiple.
  std::vector<std::vector<std::pair<VertexId, Requests>>> serverTakes_;
  /// The W the Multiple incumbent was built or last repaired under, and the
  /// sum of its shares (checked against the root demand after each repair).
  Requests assignedCapacity_ = 0;
  Requests assignedTotal_ = 0;
  /// Closest/Qos: clients currently served by each replica, sorted by their
  /// position in tree.clients(). A replica flip then touches exactly the
  /// clients whose nearest replica moved — the removed server's own list, or
  /// the subtree slice of the strict ancestors' lists — instead of every
  /// client under the flipped vertex.
  std::vector<std::vector<VertexId>> serverClients_;

  /// Per-vertex Requests scratch, zero between calls: foldDemand's carry into
  /// an internal vertex, and the Multiple repair's carry of a client (rate
  /// minus served while the repair runs).
  std::vector<Requests> requestScratch_;
  std::vector<std::uint64_t> pathMark_;    ///< root-path walk dedup stamps
  std::vector<std::uint64_t> clientMark_;  ///< repair candidate / journal dedup stamps
  std::uint64_t markGen_ = 0;
};

/// The subtree relaxation of core/bounds (FrontierSubtreeRelaxation: valid
/// for every policy) kept across deltas: each delta stamps its relaxation
/// cache the way IncrementalSolver's is stamped, minus the demand tracking
/// (a W change stamps every bag), and refresh() refolds only the stale bags
/// before re-deriving the linear floor passes. Feeds knownLowerBound into the
/// warm ILP re-solve path.
class IncrementalBounds : public FrontierSubtreeRelaxation {
 public:
  explicit IncrementalBounds(ProblemInstance& instance)
      : FrontierSubtreeRelaxation(instance), editable_(&instance) {}

  /// Invalidate after a delta someone else already applied to the instance.
  void noteDelta(const DeltaApplication& app);

  /// Convenience for standalone use: applyDelta + noteDelta.
  DeltaApplication apply(const InstanceDelta& delta);

  /// Recompute dirty relaxation frontiers and the derived floors/bound.
  using FrontierSubtreeRelaxation::refresh;

 private:
  ProblemInstance* editable_;  ///< instance_, which apply() edits
};

}  // namespace treeplace
