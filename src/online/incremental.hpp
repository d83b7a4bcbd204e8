#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/bounds.hpp"
#include "core/frontier.hpp"
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

/// Telemetry of a memoized frontier cache (see experiments/report for
/// rendering). hits/misses count per-vertex subtree results across all
/// resolves; invalidations count dirty stamps applied by mutations.
struct FrontierCacheStats {
  std::size_t trackedVertices = 0;   ///< vertices under cache management
  std::size_t hits = 0;              ///< clean subtree frontiers reused
  std::size_t misses = 0;            ///< subtree frontiers recomputed
  std::size_t invalidations = 0;     ///< per-vertex dirty stamps applied
  std::size_t globalInvalidations = 0;  ///< whole-cache flushes (capacity W)
  std::size_t compactions = 0;       ///< arena copy-compaction passes
  std::size_t arenaEntries = 0;      ///< slab entries after the last resolve
  std::size_t arenaBytes = 0;        ///< slab footprint, bytes
  /// Resolves that failed mid-flight (allocation fault, repair invariant
  /// trip), dropped every cache, and re-solved from scratch — the resilience
  /// fallback, not a steady-state event.
  std::size_t scratchFallbacks = 0;
  /// Full O(s) copies of the incumbent into the back buffer: a caller still
  /// held the snapshot the step would have repaired, or the previous step
  /// rebuilt the incumbent wholesale. Zero in a steady state of local
  /// mutations whose answers are dropped before the next step.
  std::size_t snapshotCopies = 0;

  double hitRate() const {
    const std::size_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

namespace detail {

/// Per-vertex memoized frontier state of one policy: node frontiers, the
/// per-(node, child-prefix) convolution frontiers the backpointer walk
/// needs, and the epoch stamps that validate them. Entries live in one
/// persistent arena; spans are indices, so they survive arena growth, and a
/// copy-compaction pass recycles the slab once dead generations dominate.
template <typename Entry>
struct FrontierCacheState {
  BasicFrontierArena<Entry> arena;
  std::vector<FrontierSpan> frontier;      ///< per vertex
  std::vector<FrontierSpan> comboSpans;    ///< flat, comboOffset-indexed
  /// Child convolved into each combo slot when the chain was built. Prefix
  /// reuse compares this against the current merge order, so a structural
  /// delta that reshuffles a vertex's merge order (subtree sizes shifted)
  /// silently falls back to re-convolving from the first divergence.
  std::vector<VertexId> comboChild;
  std::vector<std::int32_t> comboOffset;   ///< per vertex
  std::vector<std::int32_t> comboCount;    ///< children count at layout time
  std::vector<std::uint64_t> computedEpoch;  ///< 0 = never computed
  /// Count cap and flow ceiling the vertex's combo chain was built with
  /// (cap -1: chain invalid). A dirty vertex whose cap and ceiling are both
  /// unchanged reuses the prefix combos of its clean children and
  /// re-convolves only from the first changed child on — the recompute then
  /// costs O(changed suffix), not O(degree). The ceiling derives from W, so
  /// a capacity change rebuilds every chain.
  std::vector<std::int32_t> comboCap;
  std::vector<Requests> comboCeiling;
  /// Reconstruction memo: the entry index the last backpointer walk chose at
  /// this vertex, the mutation epoch of that walk, and the resulting replica
  /// bit. A walk that reaches a vertex with the same entry index and no
  /// mutation in its subtree since (chosenEpoch >= dirtySince) skips the
  /// whole subtree — its bits are still exact.
  std::vector<std::int32_t> chosenEntry;
  std::vector<std::uint64_t> chosenEpoch;
  std::vector<char> replicaBit;
  std::size_t liveEntries = 0;  ///< live-span entries at the last compaction
  /// Arena size below which the compaction live-scan is skipped entirely;
  /// bumped after every scan so the O(n) walk amortizes over arena growth
  /// instead of running on every resolve.
  std::size_t nextCompactCheck = 0;

  void init(const TreeDecomposition& decomp, bool withCombos);
  /// Structural growth: extend per-bag tables, remap the flat combo table
  /// onto the new schedule's layout (old bags keep their spans; the attach
  /// target is dirty anyway).
  void grow(const TreeDecomposition& decomp, bool withCombos);
};

/// One of IncrementalSolver's two incumbent buffers (defined with the solver).
struct IncumbentBuffer;

}  // namespace detail

/// Incremental re-optimization engine for the polynomial homogeneous solvers
/// (Closest, Multiple via the frontier DP, Closest+QoS).
///
/// The solver memoizes every subtree's Pareto frontier (and the prefix
/// convolutions the reconstruction walk needs) in a persistent arena, keyed
/// by epoch counters: a mutation stamps only the touched vertices and their
/// root paths (DirtyTracker), so a re-solve recomputes O(depth) frontiers
/// instead of O(s) and reuses everything else. One driver serves all three
/// policies: it recomputes a stale bag through the policy's bag step
/// (core/bag_steps), the very step the one-shot solver runs, so every
/// recomputed frontier and the incremental placement are bit-identical to a
/// from-scratch solve after every step — the equivalence tests pin this
/// down per policy.
///
/// The instance is shared with the caller (scratch comparisons and the
/// mutation driver read it); it must outlive the solver and mutate only
/// through apply().
class IncrementalSolver {
 public:
  IncrementalSolver(ProblemInstance& instance, OnlinePolicy policy);

  OnlinePolicy policy() const { return policy_; }
  std::uint64_t epoch() const { return tracker_.epoch(); }

  /// Apply one mutation to the shared instance and invalidate the affected
  /// subtree caches (touched vertices + root paths, O(depth) stamps).
  DeltaApplication apply(const InstanceDelta& delta);

  /// TEST HOOK: apply the instance edit but skip cache invalidation. This
  /// deliberately breaks the dirty-closure invariant — the cache-poisoning
  /// test uses it to prove a too-small dirty set yields a stale answer.
  /// Structural deltas are invalidated normally (the grown tables need their
  /// stamps to stay in bounds); only value deltas skip the stamps.
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

  const FrontierCacheStats& cacheStats() const { return stats_; }

 private:
  void noteDelta(const DeltaApplication& app);
  /// One resolve attempt through the policy's bag step (resolve() adds the
  /// scratch fallback).
  std::shared_ptr<const Placement> resolveOnce(BudgetGuard* guard);
  template <class Step>
  std::shared_ptr<const Placement> resolveWith(
      detail::FrontierCacheState<typename Step::Entry>& cache, Step step,
      BudgetGuard* guard);
  /// Drop every cache, the pending dirty bookkeeping, and both incumbent
  /// buffers — back to the just-constructed state against the current
  /// instance. The scratch-fallback path of resolve().
  void invalidateCaches();
  /// W for the place folds. homogeneousCapacity() scans every internal
  /// vertex (it also rejects a heterogeneous instance), so a resolve with
  /// nothing dirty — a read — skips it; every capacity delta dirties.
  Requests foldCapacity() const;
  /// Sort the pending dirty list into postorder processing position and drop
  /// duplicates (the same vertex stamped across several epochs).
  void orderPendingDirty();
  void rebuildPositions();
  template <typename Entry>
  void reconstruct(detail::FrontierCacheState<Entry>& cache,
                   std::int32_t rootEntryIndex);
  /// Persistent-assignment maintenance after a feasible reconstruct: either a
  /// full rebuild (first solve, structural growth, Multiple after a global W
  /// change) or an O(changed region) repair driven by the replica-bit flips
  /// the walk collected plus the clients whose rates mutated.
  void refreshClosestAssignment(const std::vector<char>& replicaBit);
  void refreshMultipleAssignment(const std::vector<char>& replicaBit);
  /// The repairs write `placement` (the levelled back buffer) and return the
  /// clients whose shares they may have changed: the step's journal.
  std::vector<VertexId> repairClosestAssignment(const std::vector<char>& replicaBit,
                                                Placement& placement);
  std::vector<VertexId> repairMultipleAssignment(const std::vector<char>& replicaBit,
                                                 Placement& placement);
  /// The back buffer, made equal to the published snapshot: by replaying the
  /// journal in place, or by one full copy when a caller still holds it or
  /// the journal does not cover the difference.
  Placement& levelBackBuffer();
  /// Swap the repaired back buffer in as the published snapshot; `touched`
  /// (plus flips_) becomes the journal the next step replays.
  void publishRepaired(std::vector<VertexId>&& touched);
  /// Publish a wholesale rebuild; the next step levels by a full copy.
  void publishRebuilt(Placement&& fresh);

  ProblemInstance* instance_;
  OnlinePolicy policy_;
  DirtyTracker tracker_;
  FrontierCacheStats stats_;
  detail::FrontierCacheState<FrontierEntry> cache2d_;    ///< Closest/Multiple
  detail::FrontierCacheState<QosFrontierEntry> cacheQos_;  ///< Closest + QoS

  /// Vertices stamped dirty since the last resolve (DirtyTracker::note
  /// out-list). A resolve visits exactly these, sorted into postorder, so the
  /// DP sweep costs O(dirty log dirty) instead of an O(s) epoch scan; a
  /// global invalidation (or the first solve) falls back to the full sweep.
  std::vector<VertexId> pendingDirty_;
  bool pendingGlobal_ = true;
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
  /// Per-server absorption lists of the incumbent Multiple assignment
  /// ((client, amount) per share, unordered): the undo side of the
  /// undo/replay repair. Maintained only for OnlinePolicy::Multiple.
  std::vector<std::vector<std::pair<VertexId, Requests>>> serverTakes_;
  /// Closest/Qos: clients currently served by each replica, sorted by their
  /// position in tree.clients(). A replica flip then touches exactly the
  /// clients whose nearest replica moved — the removed server's own list, or
  /// the subtree slice of the strict ancestors' lists — instead of every
  /// client under the flipped vertex.
  std::vector<std::vector<VertexId>> serverClients_;

  std::vector<std::int32_t> postPos_;      ///< postorder position per vertex
  std::vector<std::int32_t> clientIndex_;  ///< index in tree.clients(), -1 else
  std::vector<Requests> remainingScratch_;  ///< valid only for tracked clients
  std::vector<std::uint64_t> pathMark_;    ///< root-path walk dedup stamps
  std::vector<std::uint64_t> clientMark_;  ///< tracked-client dedup stamps
  std::uint64_t markGen_ = 0;
};

/// Incremental twin of core/bounds' FrontierSubtreeRelaxation: the per-subtree
/// relaxation frontiers (RelaxationStep: place absorbs min(flow, W_v) — valid
/// for every policy) are memoized with the same epoch scheme and the same
/// driver as IncrementalSolver, without combo tables, while the cheap derived
/// passes (deriveSubtreeFloors) are recomputed per refresh.
/// Feeds knownLowerBound into the warm ILP re-solve path.
class IncrementalBounds {
 public:
  explicit IncrementalBounds(ProblemInstance& instance);

  /// Invalidate after a delta someone else already applied to the instance.
  void noteDelta(const DeltaApplication& app);

  /// Convenience for standalone use: applyDelta + noteDelta.
  DeltaApplication apply(const InstanceDelta& delta);

  /// Recompute dirty relaxation frontiers and the derived floors/bound.
  void refresh();

  bool feasible() const { return floors_.feasible; }
  double decompositionBound() const { return floors_.decompositionBound; }
  std::int32_t minReplicasIn(VertexId v) const {
    return floors_.minReplicas[static_cast<std::size_t>(v)];
  }
  std::int32_t minTotalReplicas() const {
    return minReplicasIn(instance_->tree.root());
  }
  const FrontierCacheStats& cacheStats() const { return stats_; }

 private:
  ProblemInstance* instance_;
  DirtyTracker tracker_;
  FrontierCacheStats stats_;
  detail::FrontierCacheState<FrontierEntry> cache_;
  SubtreeFloors floors_;
};

}  // namespace treeplace
