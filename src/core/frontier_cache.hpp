#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/frontier.hpp"

namespace treeplace {

/// Telemetry of a FrontierCache (see experiments/report for rendering).
/// hits/misses count per-bag subtree results across all refreshes;
/// invalidations count dirty stamps.
struct FrontierCacheStats {
  std::size_t trackedVertices = 0;   ///< vertices under cache management
  std::size_t hits = 0;              ///< clean subtree frontiers reused
  std::size_t misses = 0;            ///< subtree frontiers recomputed
  std::size_t invalidations = 0;     ///< per-vertex dirty stamps applied
  /// Homogeneous W changes: a whole-cache flush, or for a consumer that
  /// tracks subtree demands a stamp of just the bags where W binds.
  std::size_t globalInvalidations = 0;
  std::size_t compactions = 0;       ///< arena copy-compaction passes
  std::size_t arenaEntries = 0;      ///< slab entries after the last refresh
  std::size_t arenaBytes = 0;        ///< slab footprint, bytes
  /// IncrementalSolver resolves that failed mid-flight (allocation fault,
  /// repair invariant trip), dropped every cache, and re-solved from scratch
  /// — the resilience fallback, not a steady-state event.
  std::size_t scratchFallbacks = 0;
  /// Full O(s) copies of IncrementalSolver's incumbent into the back buffer:
  /// a caller still held the snapshot the step would have repaired, or the
  /// previous step rebuilt the incumbent wholesale. Zero in a steady state of
  /// local mutations whose answers are dropped before the next step.
  std::size_t snapshotCopies = 0;

  double hitRate() const {
    const std::size_t total = hits + misses;
    return total > 0 ? static_cast<double>(hits) / static_cast<double>(total) : 0.0;
  }
};

/// The entry-independent half of FrontierCache: dirty tracking, the pending
/// dirty list and the per-bag span tables.
///
/// Dirty tracking is by epoch. advance() opens a new epoch; stamp() marks
/// vertices and their root paths dirty at the current one and queues them
/// for the next refresh. Walking up stops at a vertex already stamped in this
/// epoch, so stamps between two advances share their path suffixes and a mark
/// costs O(depth) amortised. The dirty set is therefore closed under parents:
/// a clean bag implies a clean cone, which is exactly the invariant the
/// per-cone frontiers need.
class FrontierCacheBase {
 public:
  std::uint64_t epoch() const { return epoch_; }

  /// A bag's cached frontier is valid iff it was computed at or after this.
  std::uint64_t dirtySince(BagId v) const {
    const std::uint64_t local = lastDirty_[static_cast<std::size_t>(v)];
    return local > globalDirty_ ? local : globalDirty_;
  }

  void advance() { ++epoch_; }

  /// Stamp `vertices` and their root paths dirty at the current epoch.
  void stamp(std::span<const VertexId> vertices);

  /// Every bag is stale; the next refresh sweeps the whole schedule.
  void invalidateAll();

  /// Structural growth: bags firstNew.. were appended under one parent. They
  /// are born dirty at the current epoch (their ancestors still need a
  /// stamp()). The per-bag tables grow geometrically, and the parent and the
  /// new bags get their combo slots at the table's tail — O(added + the
  /// parent's degree), amortized; every other bag keeps its slots.
  void grow(BagId firstNew);

  /// True while some bag awaits a refresh.
  bool stale() const { return sweep_ || !pending_.empty(); }

  FrontierSpan frontier(BagId v) const { return frontier_[static_cast<std::size_t>(v)]; }
  std::span<const FrontierSpan> frontiers() const { return frontier_; }
  /// The prefix frontier covering mergeChildren(v)[0..ci] (combo tables only).
  FrontierSpan combo(BagId v, std::size_t ci) const {
    return comboSpans_[static_cast<std::size_t>(comboOffset_[static_cast<std::size_t>(v)]) + ci];
  }

  FrontierCacheStats& stats() { return stats_; }
  const FrontierCacheStats& stats() const { return stats_; }

 protected:
  FrontierCacheBase(const Tree& tree, bool withCombos);

  /// Drop every cached frontier and chain: all bags stale, nothing pending
  /// but the full sweep. Epochs and stats carry on.
  void resetTables();
  bool isClean(BagId v) const {
    return computedEpoch_[static_cast<std::size_t>(v)] >= dirtySince(v);
  }
  /// The bags the next refresh must consider, in schedule order: the whole
  /// schedule while sweep_, else the pending list sorted into postorder
  /// position and deduplicated (the same vertex stamped in several epochs),
  /// so a local refresh never looks at the clean rest of the tree.
  std::span<const BagId> staleBags();
  /// Add a stamped vertex to the pending list (see sweep_).
  void queue(VertexId v);

  TreeDecomposition decomp_;
  bool withCombos_;
  FrontierCacheStats stats_;

  std::uint64_t epoch_ = 1;        ///< bumped by advance()
  std::uint64_t globalDirty_ = 1;  ///< set to epoch_ on invalidateAll()
  std::vector<std::uint64_t> lastDirty_;  ///< per-vertex last dirty epoch
  /// Vertices stamped since the last refresh; meaningless while sweep_.
  std::vector<VertexId> pending_;
  /// The next refresh visits the whole schedule: after a reset, a global
  /// invalidation, or once the pending list outgrew an eighth of the tree
  /// (sorting it would cost more than the sweep, and a rarely refreshed
  /// cache would grow it without bound).
  bool sweep_ = true;

  std::vector<FrontierSpan> frontier_;          ///< per bag
  std::vector<std::uint64_t> computedEpoch_;    ///< per bag; 0 = never computed
  std::vector<FrontierSpan> comboSpans_;        ///< flat, comboOffset-indexed
  /// Child convolved into each combo slot when the chain was built. Prefix
  /// reuse compares this against the current merge order, so a structural
  /// delta that reshuffles a bag's merge order (subtree sizes shifted)
  /// silently falls back to re-convolving from the first divergence.
  std::vector<VertexId> comboChild_;
  std::vector<std::int32_t> comboOffset_;  ///< per bag
  std::vector<std::int32_t> comboCount_;   ///< children count at layout time
  /// Combo slots abandoned by grow() relocations; the table is laid out
  /// afresh once they outnumber the live ones.
  std::size_t deadComboSlots_ = 0;
  /// Count cap and flow ceiling the bag's combo chain was built with (cap
  /// -1: chain invalid). A stale bag whose cap and ceiling are both
  /// unchanged reuses the prefix combos of its clean children and
  /// re-convolves only from the first changed child on — the recompute then
  /// costs O(changed suffix), not O(degree). The ceiling derives from W, so
  /// a capacity change rebuilds the chain of every bag it stamps; a bag left
  /// clean (its demand fits both W's) keeps the old ceiling here, and its
  /// next recompute rebuilds its chain whole.
  std::vector<std::int32_t> comboCap_;
  std::vector<Requests> comboCeiling_;
  /// Arena size below which the compaction live-scan is skipped entirely;
  /// bumped after every scan so the O(n) walk amortizes over arena growth
  /// instead of running on every refresh.
  std::size_t nextCompactCheck_ = 0;
};

/// Memoized per-bag frontiers of one bag step over a growing tree — the one
/// incremental frontier engine. IncrementalSolver and IncrementalBounds
/// (online/incremental) and the multitree solver (exact/multitree_closest)
/// each own one. Entries live in one persistent arena; spans are indices, so
/// they survive arena growth, and a copy-compaction pass recycles the slab
/// once dead generations dominate. A cache built with combo tables also keeps
/// every bag's child-prefix convolutions: the reconstruction walk needs them,
/// and they let a recompute reuse the clean prefix of its chain.
template <typename Entry>
class FrontierCache : public FrontierCacheBase {
 public:
  FrontierCache(const Tree& tree, bool withCombos) : FrontierCacheBase(tree, withCombos) {
    reset();
  }

  /// Drop every cached frontier (the scratch-fallback path of a consumer):
  /// the next refresh recomputes all bags.
  void reset();

  /// Recompute the stale bags, in schedule order, through `step` (a bag step
  /// of core/bag_steps), folding children in `order`; clean bags are reused.
  /// Every recomputed frontier is bit-identical to runFrontierDp's
  /// (core/frontier), empty ones included. With combo tables a bag's chain
  /// is reused up to the first slot whose recorded child diverges from the
  /// current child order or was recomputed after the chain was built.
  ///
  /// `guard` is ticked BEFORE a bag is stamped, so an interrupted refresh
  /// leaves that bag and the pending list intact and everything already
  /// recomputed exact. A refresh closes the current epoch on entry, so no
  /// stamp after it, not even after an interrupted one, is mistaken for work
  /// it covered. Returns the number of bags recomputed.
  template <class Step>
  std::size_t refresh(Step& step, BudgetGuard* guard, ChildOrder order);

  const BasicFrontierArena<Entry>& arena() const { return arena_; }

 private:
  void compactIfBloated();

  BasicFrontierArena<Entry> arena_;
};

template <typename Entry>
template <class Step>
std::size_t FrontierCache<Entry>::refresh(Step& step, BudgetGuard* guard,
                                          ChildOrder order) {
  compactIfBloated();
  const std::uint64_t at = epoch_++;
  typename Step::Merger merger(arena_);
  std::size_t misses = 0;
  for (const BagId v : staleBags()) {
    const auto vi = static_cast<std::size_t>(v);
    if (isClean(v)) continue;
    if (guard != nullptr) guard->checkpoint();
    ++misses;
    const std::uint64_t prevEpoch = computedEpoch_[vi];
    computedEpoch_[vi] = at;

    if (decomp_.anchorIsClient(v)) {
      const std::uint32_t begin = arena_.beginSpan();
      arena_.push(step.seed(decomp_.anchor(v)));
      frontier_[vi] = arena_.endSpan(begin);
      continue;
    }

    const BagShape shape = decomp_.shape(v);
    const FrontierLimits limits = step.chain(shape);
    const std::span<const BagId> children = (decomp_.*order)(v);
    const auto base = withCombos_ ? static_cast<std::size_t>(comboOffset_[vi]) : 0;
    std::size_t f = 0;
    if (withCombos_ && prevEpoch > 0 && comboCap_[vi] == limits.maxCount &&
        comboCeiling_[vi] == limits.ceiling) {
      while (f < children.size() && comboChild_[base + f] == children[f] &&
             computedEpoch_[static_cast<std::size_t>(children[f])] <= prevEpoch)
        ++f;
    }
    FrontierSpan acc = f == 0 ? merger.unit() : comboSpans_[base + f - 1];
    for (std::size_t ci = f; ci < children.size(); ++ci) {
      const BagId child = children[ci];
      acc = step.fold(merger, acc, frontier_[static_cast<std::size_t>(child)],
                      decomp_.anchor(child), limits);
      if (withCombos_) {
        comboSpans_[base + ci] = acc;
        comboChild_[base + ci] = child;
      }
    }
    if (withCombos_) {
      comboCap_[vi] = limits.maxCount;
      comboCeiling_[vi] = limits.ceiling;
    }
    frontier_[vi] = step.placeSkip(merger, acc, decomp_.anchor(v), shape);
  }
  pending_.clear();
  sweep_ = false;
  stats_.misses += misses;
  stats_.hits += decomp_.bagCount() - misses;
  stats_.arenaEntries = arena_.entryCount();
  stats_.arenaBytes = arena_.bytes();
  return misses;
}

}  // namespace treeplace
