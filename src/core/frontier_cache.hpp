#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/frontier.hpp"
#include "support/budget.hpp"

namespace treeplace {

/// Telemetry of a FrontierCache; forEachField names its JSON keys.
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

  /// Names each field once, as f(json_key, value) in JSON key order; the
  /// bench writers (writeFields, bench::renderFields) read this list.
  template <class F>
  void forEachField(F&& f) const {
    f("tracked_vertices", trackedVertices);
    f("hits", hits);
    f("misses", misses);
    f("hit_rate", hitRate());
    f("invalidations", invalidations);
    f("global_invalidations", globalInvalidations);
    f("compactions", compactions);
    f("arena_entries", arenaEntries);
    f("arena_bytes", arenaBytes);
    f("snapshot_copies", snapshotCopies);
    f("scratch_fallbacks", scratchFallbacks);
  }
};

/// The entry-independent half of FrontierCache: dirty tracking, the pending
/// dirty list and the per-bag records. A *bag* is one vertex of the tree and
/// its subtree (its cone): the unit a frontier DP folds. Bags are indexed by
/// vertex id, refreshed in postorder (the schedule), and fold their children
/// in Tree::mergeChildren order.
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
  std::uint64_t dirtySince(VertexId v) const {
    const std::uint64_t local =
        epochs_.empty() ? 0 : epochs_[static_cast<std::size_t>(v)].lastDirty;
    return local > globalDirty_ ? local : globalDirty_;
  }

  void advance() { ++epoch_; }

  /// Stamp `vertices` and their root paths dirty at the current epoch.
  void stamp(std::span<const VertexId> vertices);

  /// Every bag is stale; the next refresh sweeps the whole postorder.
  void invalidateAll();

  /// Structural growth: bags firstNew.. were appended under one parent, with
  /// firstNew its one new child. They are born dirty at the current epoch
  /// (their ancestors still need a stamp()), and the parent's chain is
  /// rebuilt whole at its next recompute. O(added), amortized.
  void grow(VertexId firstNew);

  /// True while some bag awaits a refresh.
  bool stale() const { return sweep_ || !pending_.empty(); }

  FrontierSpan frontier(VertexId v) const { return frontier_[static_cast<std::size_t>(v)]; }

  FrontierCacheStats& stats() { return stats_; }
  const FrontierCacheStats& stats() const { return stats_; }

 protected:
  FrontierCacheBase(const Tree& tree, bool withCombos);

  struct BagEpochs {
    std::uint64_t computed = 0;   ///< epoch of the last recompute; 0 = never
    std::uint64_t lastDirty = 0;  ///< last epoch the bag was stamped dirty
  };
  /// A bag's combo chain: its first slot in combos_ (-1 until laid out), and
  /// the count cap and flow ceiling it was built with (cap -1: chain
  /// invalid). A stale bag whose cap and ceiling are both unchanged reuses
  /// the prefix combos of its clean children and re-convolves only from the
  /// first changed child on — the recompute then costs O(changed suffix),
  /// not O(degree). The ceiling derives from W, so a capacity change
  /// rebuilds the chain of every bag it stamps; a bag left clean (its demand
  /// fits both W's) keeps the old ceiling here, and its next recompute
  /// rebuilds its chain whole.
  struct Chain {
    Requests ceiling = 0;
    std::int32_t begin = -1;
    std::int32_t cap = -1;
  };
  /// One link of a combo chain: the prefix frontier over the bag's children
  /// up to and including `child`. Prefix reuse compares `child` against the
  /// current merge order, so a structural delta that reshuffled a bag's
  /// merge order (subtree sizes shifted) re-convolves from the first
  /// divergence.
  struct ComboSlot {
    FrontierSpan span;
    VertexId child = kNoVertex;
  };

  /// Drop every cached frontier and chain: all bags stale, nothing pending
  /// but the full (cold) sweep. The epoch counter and stats carry on.
  void resetTables();
  /// The epoch bag v was last recomputed at: its own, or the last cold
  /// refresh's, whichever is later.
  std::uint64_t computedAt(std::size_t v) const {
    const std::uint64_t local = epochs_.empty() ? 0 : epochs_[v].computed;
    return local > sweptAt_ ? local : sweptAt_;
  }
  bool isClean(VertexId v) const {
    return computedAt(static_cast<std::size_t>(v)) >= dirtySince(v);
  }
  /// The per-bag epochs, allocated at the first stamp, growth or interrupted
  /// cold refresh: a cold refresh neither reads nor writes them.
  void ensureEpochs() {
    if (epochs_.empty()) epochs_.resize(frontier_.size());
  }
  /// The bags the next refresh must consider, in postorder: all of them
  /// while sweep_, else the pending list sorted into postorder position and
  /// deduplicated (the same vertex stamped in several epochs),
  /// so a local refresh never looks at the clean rest of the tree.
  std::span<const VertexId> staleBags();
  /// Add a stamped vertex to the pending list (see sweep_).
  void queue(VertexId v);

  const Tree* tree_;
  bool withCombos_;
  FrontierCacheStats stats_;

  std::uint64_t epoch_ = 1;        ///< bumped by advance()
  std::uint64_t globalDirty_ = 1;  ///< set to epoch_ on invalidateAll()
  /// Every bag is stale (after a reset or invalidateAll): the next refresh
  /// is cold. It recomputes every bag without touching the per-bag
  /// epochs and, once it completes, records its epoch in sweptAt_ for all
  /// of them.
  bool cold_ = true;
  std::uint64_t sweptAt_ = 0;
  /// Vertices stamped since the last refresh; meaningless while sweep_.
  std::vector<VertexId> pending_;
  /// The next refresh visits every bag: after a reset, a global
  /// invalidation, or once the pending list outgrew an eighth of the tree
  /// (sorting it would cost more than the sweep, and a rarely refreshed
  /// cache would grow it without bound).
  bool sweep_ = true;

  std::vector<FrontierSpan> frontier_;  ///< per bag
  std::vector<BagEpochs> epochs_;       ///< per bag, or empty (see ensureEpochs)
  std::vector<Chain> chains_;           ///< per bag (combo tables only)
  /// The combo chains, each contiguous, one slot per child: a chain is laid
  /// out at its bag's first recompute, so a cold refresh lays them out in
  /// postorder. A chain that grow() drops leaves a hole, which
  /// compaction removes.
  std::vector<ComboSlot> combos_;
  /// Arena size below which the compaction live-scan is skipped entirely;
  /// bumped after every scan so the O(n) walk amortizes over arena growth
  /// instead of running on every refresh.
  std::size_t nextCompactCheck_ = 0;
};

/// Memoized per-bag frontiers of one bag step over a growing tree — the one
/// frontier engine. A one-shot exact solve (solveCold below) is a cold cache
/// refreshed once; IncrementalSolver (online/incremental), the subtree
/// relaxation (core/bounds) with its incremental form IncrementalBounds, and
/// the multitree solver (exact/multitree_closest) each keep one across
/// refreshes. Entries live in one persistent arena; spans are indices, so
/// they survive arena growth, and a copy-compaction pass recycles the slab
/// once dead generations dominate. A cache built with combo tables also keeps
/// every bag's child-prefix convolutions: the reconstruction walk needs them,
/// and they let a recompute reuse the clean prefix of its chain.
template <typename Entry>
class FrontierCache : public FrontierCacheBase {
 public:
  /// `slab` is the arena to fill: a caller that solves many instances hands
  /// its slab in and takes it back with releaseArena(), so the capacity is
  /// reused instead of reallocated per instance.
  FrontierCache(const Tree& tree, bool withCombos, BasicFrontierArena<Entry> slab = {})
      : FrontierCacheBase(tree, withCombos), arena_(std::move(slab)) {
    reset();
  }

  /// Drop every cached frontier (the scratch-fallback path of a consumer):
  /// the next refresh recomputes all bags.
  void reset();

  /// Recompute the stale bags, in postorder, through `step` (a bag step of
  /// core/bag_steps), folding children in merge order; clean bags are
  /// reused.
  /// A client bag takes step.seed. Any other bag convolves its child
  /// frontiers into the chain accumulator under step.chain(shape(tree, v)),
  /// then runs step.placeSkip. An empty frontier (some child has no live state)
  /// is carried forward like any other: it empties every ancestor's
  /// accumulator, so the root ends with no entry and the verdict is
  /// infeasible. With combo tables a bag's chain is reused up to the first
  /// slot whose child moved in the current merge order or was recomputed
  /// after the chain was built.
  ///
  /// `guard` is ticked BEFORE a bag is stamped, so an interrupted refresh
  /// leaves that bag and the pending list intact and everything already
  /// recomputed exact. A refresh closes the current epoch on entry, so no
  /// stamp after it, not even after an interrupted one, is mistaken for work
  /// it covered. Returns the telemetry of the refresh's merges (a cold
  /// refresh's is the whole solve's); stats().misses counts the bags it
  /// recomputed.
  template <class Step>
  FrontierStats refresh(Step& step, BudgetGuard* guard);

  /// The backpointer walk of the optimum (combo tables only), top-down from
  /// the root's entry at `rootEntry`. Clients hold no choice and are not
  /// visited. At every other vertex it reaches it calls enter(v, entryIndex);
  /// false skips v and its subtree. Every vertex entered is then reported as
  /// chosen(v, placed), placed when its entry holds a replica on v.
  template <class Enter, class Chosen>
  void walk(std::int32_t rootEntry, Enter&& enter, Chosen&& chosen) const;

  const BasicFrontierArena<Entry>& arena() const { return arena_; }
  /// Hand the slab back to the caller that lent it; the cache's spans are
  /// void from then on.
  BasicFrontierArena<Entry> releaseArena() { return std::exchange(arena_, {}); }

 private:
  void compactIfBloated();

  BasicFrontierArena<Entry> arena_;
};

template <typename Entry>
template <class Step>
FrontierStats FrontierCache<Entry>::refresh(Step& step, BudgetGuard* guard) {
  compactIfBloated();
  const std::uint64_t at = epoch_++;
  const bool cold = std::exchange(cold_, false);
  typename Step::Merger merger(arena_);
  const std::span<const VertexId> bags = staleBags();
  std::size_t misses = 0;
  try {
    for (const VertexId v : bags) {
      const auto vi = static_cast<std::size_t>(v);
      if (!cold && isClean(v)) continue;
      if (guard != nullptr) guard->checkpoint();
      const std::uint64_t prevEpoch = cold ? 0 : computedAt(vi);
      if (!cold) epochs_[vi].computed = at;
      if (tree_->isClient(v)) {
        const std::uint32_t begin = arena_.beginSpan();
        arena_.push(step.seed(v));
        frontier_[vi] = arena_.endSpan(begin);
        ++misses;
        continue;
      }
      const BagShape bag = shape(*tree_, v);
      const FrontierLimits limits = step.chain(bag);
      const std::span<const VertexId> children = tree_->mergeChildren(v);
      ComboSlot* slots = nullptr;
      std::size_t f = 0;
      if (withCombos_) {
        Chain& chain = chains_[vi];
        if (chain.begin < 0) {  // laid out at the tail of the combo table on first use
          chain.begin = static_cast<std::int32_t>(combos_.size());
          combos_.resize(combos_.size() + children.size());
        }
        slots = combos_.data() + chain.begin;
        if (prevEpoch > 0 && chain.cap == limits.maxCount && chain.ceiling == limits.ceiling)
          while (f < children.size() && slots[f].child == children[f] &&
                 computedAt(static_cast<std::size_t>(children[f])) <= prevEpoch)
            ++f;
        chain.cap = limits.maxCount;
        chain.ceiling = limits.ceiling;
      }
      FrontierSpan acc = f == 0 ? merger.unit() : slots[f - 1].span;
      for (std::size_t ci = f; ci < children.size(); ++ci) {
        const VertexId child = children[ci];
        acc = step.fold(merger, acc, frontier_[static_cast<std::size_t>(child)], child,
                        limits);
        if (slots != nullptr) slots[ci] = {acc, child};
      }
      frontier_[vi] = step.placeSkip(merger, acc, v, bag);
      ++misses;
    }
  } catch (...) {
    // An interrupted cold refresh keeps what it finished: the bags before
    // the one it stopped at, in postorder.
    if (cold) {
      ensureEpochs();
      for (std::size_t k = 0; k < misses; ++k)
        epochs_[static_cast<std::size_t>(bags[k])].computed = at;
    }
    throw;
  }
  if (cold) sweptAt_ = at;
  pending_.clear();
  sweep_ = false;
  stats_.misses += misses;
  stats_.hits += tree_->vertexCount() - misses;
  stats_.arenaEntries = arena_.entryCount();
  stats_.arenaBytes = arena_.bytes();
  merger.noteArenaUsage();
  return merger.stats();
}

template <typename Entry>
template <class Enter, class Chosen>
void FrontierCache<Entry>::walk(std::int32_t rootEntry, Enter&& enter,
                                Chosen&& chosen) const {
  struct Todo {
    VertexId bag;
    std::int32_t entryIndex;
  };
  std::vector<Todo> stack{{tree_->root(), rootEntry}};  // the root is internal
  while (!stack.empty()) {
    const Todo todo = stack.back();
    stack.pop_back();
    if (!enter(todo.bag, todo.entryIndex)) continue;
    const auto bi = static_cast<std::size_t>(todo.bag);
    const Entry& entry = arena_.at(frontier_[bi], static_cast<std::size_t>(todo.entryIndex));
    chosen(todo.bag, entry.child == 1);
    const std::span<const VertexId> children = tree_->mergeChildren(todo.bag);
    const ComboSlot* chain = combos_.data() + chains_[bi].begin;
    std::int32_t combIdx = entry.prev;
    for (std::size_t ci = children.size(); ci-- > 0;) {
      const Entry& comb = arena_.at(chain[ci].span, static_cast<std::size_t>(combIdx));
      if (!tree_->isClient(children[ci])) stack.push_back({children[ci], comb.child});
      combIdx = comb.prev;
    }
  }
}

/// A one-shot exact solve: a cold combo-table cache refreshed once through
/// `step`, every bag stale, so the guard is ticked once per bag. Writes the
/// refresh's frontier telemetry into `stats` when non-null. When the
/// instance is feasible, walks the optimum from step.rootEntry and calls
/// onReplica(v) for every replica; returns false when it is infeasible.
template <class Step, class OnReplica>
bool solveCold(const Tree& tree, Step step, FrontierStats* stats, BudgetGuard* guard,
               OnReplica&& onReplica) {
  FrontierCache<typename Step::Entry> cache(tree, true);
  const FrontierStats folded = cache.refresh(step, guard);
  if (stats != nullptr) *stats = folded;
  const std::int32_t rootEntry = step.rootEntry(cache.arena(), cache.frontier(tree.root()));
  if (rootEntry < 0) return false;
  cache.walk(
      rootEntry, [](VertexId, std::int32_t) { return true; },
      [&onReplica](VertexId anchor, bool placed) {
        if (placed) onReplica(anchor);
      });
  return true;
}

}  // namespace treeplace
