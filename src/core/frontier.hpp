#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <new>
#include <span>
#include <utility>
#include <vector>

#include "core/decomposition.hpp"
#include "core/frontier_fwd.hpp"
#include "support/budget.hpp"
#include "support/fault_injection.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Flow ceiling that drops nothing: the default of the merges below for
/// callers whose states have no bounded absorber above them (relaxations).
inline constexpr Requests kNoFlowCeiling = std::numeric_limits<Requests>::max();

/// The bounds one merge runs under: counts above `maxCount` cannot be
/// Pareto-optimal for the caller, and states whose flow exceeds `ceiling`
/// are dead (see the live-state invariant below). Every policy derives both
/// from the bag shape (core/bag_steps).
struct FrontierLimits {
  std::int32_t maxCount;
  Requests ceiling;
};

/// One Pareto point of a subtree DP: with `count` replicas inside the
/// covered forest, `flow` requests leave it unserved. Frontiers are kept
/// sorted by count ascending with strictly decreasing flow, so `count` is
/// also the cheapest replica budget achieving `flow`.
///
/// Live-state invariant: every merge takes a per-bag *flow ceiling* — the
/// most unserved flow any placement above the bag could still absorb — and
/// never stores a state above it. Under Closest the whole upward flow goes
/// to one replica (ceiling W); under Multiple a node's flow can only be
/// spread over its depth(v) ancestors (ceiling W * depth(v), one more W for
/// the child-convolution chain, which v itself may still serve). A dead
/// state can never win a live count bucket nor dominate a live point, so
/// the live part of a frontier, backpointers included, is the same with or
/// without the ceiling; only the dead tail of work disappears. Flows
/// strictly decrease along a 2-D frontier, so its dead states were always a
/// prefix.
///
/// The two backpointer slots thread the reconstruction and are
/// role-dependent:
///  - in a *convolution* frontier (prefix over children), `prev` indexes the
///    previous prefix frontier and `child` the merged child's frontier;
///  - in a *node* frontier (after the place/skip decision), `prev` indexes
///    the node's final convolution frontier and `child` is 1 when a replica
///    sits on the node itself, else 0.
struct FrontierEntry {
  std::int32_t count = 0;
  Requests flow = 0;
  std::int32_t prev = -1;
  std::int32_t child = -1;
};

/// Pareto point of a QoS-constrained subtree DP (exact/closest_qos): `slack`
/// is the minimum remaining QoS budget over the subtree's unserved clients
/// (infinite when flow is 0). Backpointer roles match FrontierEntry.
struct QosFrontierEntry {
  std::int32_t count = 0;
  Requests flow = 0;
  double slack = 0.0;
  std::int32_t prev = -1;
  std::int32_t child = -1;
};

/// Offset/length handle into a frontier arena slab. Handles stay valid across
/// arena growth (they are indices, not pointers).
struct FrontierSpan {
  std::uint32_t begin = 0;
  std::uint32_t size = 0;

  bool empty() const { return size == 0; }
};

/// Per-solve telemetry of the frontier machinery.
struct FrontierStats {
  std::size_t peakWidth = 0;      ///< widest pruned frontier produced
  std::size_t arenaBytes = 0;     ///< arena high-water mark, in bytes
  std::size_t entriesMerged = 0;  ///< candidate (a,b) pairs examined
  std::size_t convolutions = 0;   ///< monotone merges performed

  void merge(const FrontierStats& other);
};

/// Bump allocator for frontier entries. Every frontier produced during one
/// solve lives in a single flat slab; nodes hold FrontierSpan handles instead
/// of per-node vectors, so the DP performs O(1) heap allocations overall and
/// reconstruction walks stay cache-friendly. Templated on the entry type so
/// the 2-D (count, flow) and 3-D (count, flow, slack) DPs share the storage
/// machinery.
template <typename Entry>
class BasicFrontierArena {
 public:
  /// Drop all spans and reserve room for `expectedEntries` entries.
  void reset(std::size_t expectedEntries) {
    slab_.clear();
    slab_.reserve(expectedEntries);
  }

  std::span<const Entry> view(FrontierSpan span) const {
    return {slab_.data() + span.begin, span.size};
  }

  const Entry& at(FrontierSpan span, std::size_t index) const {
    return slab_[span.begin + index];
  }

  /// Append one entry to the span currently being built (see beginSpan).
  /// Slab growth is an Allocation fault site: when armed, a growing push may
  /// throw std::bad_alloc exactly as a memory-starved host would — consumers
  /// (the incremental solver, the resilient pipeline) must unwind cleanly.
  void push(const Entry& entry) {
    if (slab_.size() == slab_.capacity() && fault::fire(fault::Site::Allocation))
      throw std::bad_alloc();
    slab_.push_back(entry);
  }

  /// Start a new span at the current top of the slab.
  std::uint32_t beginSpan() const { return static_cast<std::uint32_t>(slab_.size()); }

  /// Close the span opened at `begin`.
  FrontierSpan endSpan(std::uint32_t begin) const {
    return {begin, static_cast<std::uint32_t>(slab_.size()) - begin};
  }

  std::size_t bytes() const { return slab_.capacity() * sizeof(Entry); }
  std::size_t entryCount() const { return slab_.size(); }

 private:
  std::vector<Entry> slab_;
};

// FrontierArena / QosFrontierArena aliases live in core/frontier_fwd.hpp.

/// Sort-free monotone merges over count-sorted / flow-decreasing frontiers.
///
/// The classic inner loop materialises the |A|x|B| cross product and prunes
/// it with an O(m log m) sort. Both inputs are already monotone, so the
/// merged Pareto frontier has at most maxCount+1 entries (one per replica
/// count): candidates are scattered into a count-indexed scratch bucket kept
/// at the minimum flow, then a single ascending sweep emits the strictly
/// decreasing survivors straight into the arena. No sort, no temporary
/// vectors, output allocation capped by the frontier-width bound
/// (clients/internals in the subtree, never |A|*|B|). Buckets span only the
/// live count range [min live count sum, reach], so a merge of two
/// ceiling-bounded frontiers costs O(live width), whatever the counts are.
class FrontierConvolver {
 public:
  explicit FrontierConvolver(FrontierArena& arena) : arena_(&arena) {}

  /// The neutral frontier {(count 0, flow 0)} that seeds a convolution chain.
  FrontierSpan unit();

  /// Merge two frontiers: counts add, flows add. `maxCount` caps the output
  /// width (counts above it cannot be Pareto-optimal for the caller), and
  /// pairs whose flow exceeds `ceiling` are dead and never stored.
  /// Backpointers record (prev = index into a, child = index into b).
  FrontierSpan convolve(FrontierSpan a, FrontierSpan b, std::int32_t maxCount,
                        Requests ceiling = kNoFlowCeiling);

  /// Prune an arbitrary count-keyed candidate list (already appended by the
  /// caller into `scatter`-style usage): used by solvers whose place/skip
  /// step produces two monotone option streams. Candidates are merged via the
  /// same bucket + sweep, those above `ceiling` dropped; backpointers pass
  /// through untouched.
  FrontierSpan pruneCandidates(std::span<const FrontierEntry> candidates,
                               std::int32_t maxCount,
                               Requests ceiling = kNoFlowCeiling);

  FrontierArena& arena() const { return *arena_; }
  const FrontierStats& stats() const { return stats_; }

  /// Record the width of a frontier the caller assembled by hand (e.g. the
  /// place/skip options of a DP node, which bypass the bucket sweep).
  void noteWidth(std::size_t width) {
    if (width > stats_.peakWidth) stats_.peakWidth = width;
  }

  /// Record the arena high-water mark into the stats (call once per solve).
  void noteArenaUsage();

 private:
  void ensureBuckets(std::size_t width);
  /// Emit the Pareto survivors of the buckets for counts [minCount, reach].
  FrontierSpan sweep(std::int32_t minCount, std::int32_t reach);

  FrontierArena* arena_;
  FrontierStats stats_;
  // Scratch indexed by count - minCount: best flow plus the winning
  // backpointers.
  std::vector<Requests> bucketFlow_;
  std::vector<std::int32_t> bucketPrev_;
  std::vector<std::int32_t> bucketChild_;
};

/// 3-D dominance filter for (count, flow, slack) frontiers: an entry is
/// dominated when another has count <=, flow <= and slack >= it. Replaces the
/// retired sort + O(k^2) pairwise prune of the QoS solver.
///
/// Candidates are scattered into count-indexed buckets; each bucket keeps a
/// 2-D (flow, slack) staircase — flow ascending, slack strictly ascending —
/// under insertion, so within-bucket dominance is resolved on the fly.
/// emit() then sweeps buckets by ascending count, testing each survivor
/// against the running staircase of all lower counts and streaming the
/// non-dominated points into the arena in (count, flow) order — exactly the
/// order the old sort produced, so downstream consumers see identical
/// frontiers. Bucket vectors are recycled across batches: steady-state
/// filtering performs no heap allocations. A batch spans only its live count
/// range and drops candidates above its flow ceiling (W under Closest+QoS:
/// one replica serves everything a bag sends up), so a dead candidate can
/// neither survive nor dominate a live one.
class QosFrontierSweep {
 public:
  explicit QosFrontierSweep(QosFrontierArena& arena) : arena_(&arena) {}

  /// The neutral frontier {(count 0, flow 0, infinite slack)} that seeds a
  /// convolution chain.
  FrontierSpan unit();

  /// Start a batch whose counts lie in [minCount, maxCount]; candidates with
  /// flow above `ceiling` are dead and dropped on add().
  void begin(std::int32_t minCount, std::int32_t maxCount, Requests ceiling);

  /// Offer one candidate (count must be within the begin() bounds).
  void add(const QosFrontierEntry& entry);

  /// Cross-bucket dominance sweep; emits the pruned frontier into the arena.
  FrontierSpan emit();

  /// One step of the QoS child-convolution chain: every live state of
  /// `child` first pays its `uplink` latency (states whose slack goes
  /// negative are dead), then pairs with every state of `acc` — counts add,
  /// flows add, slacks combine by min — and the batch is pruned. Counts
  /// above `maxCount` and flows above `ceiling` are dropped. Backpointers
  /// record (prev = index into acc, child = index into child). An empty
  /// result means no pair survived.
  FrontierSpan convolve(FrontierSpan acc, FrontierSpan child, std::int32_t maxCount,
                        double uplink, Requests ceiling);

  QosFrontierArena& arena() const { return *arena_; }
  const FrontierStats& stats() const { return stats_; }
  void noteArenaUsage();

 private:
  struct Step {  ///< one staircase point inside a count bucket
    Requests flow;
    double slack;
    std::int32_t prev;
    std::int32_t child;
  };

  /// Insert into a staircase (flow strictly ascending, slack strictly
  /// ascending) unless a step dominates the entry (flow <=, slack >=,
  /// non-strict — the incumbent wins exact ties); steps the entry dominates
  /// are removed. Returns false when the entry was dominated. Shared by the
  /// per-count buckets (add) and the cross-bucket skyline (emit).
  static bool staircaseInsert(std::vector<Step>& steps, const Step& entry);

  QosFrontierArena* arena_;
  FrontierStats stats_;
  std::vector<std::vector<Step>> buckets_;  ///< capacity recycled across batches
  std::int32_t bucketsInUse_ = 0;
  std::int32_t minCount_ = 0;  ///< count of buckets_[0] in the current batch
  Requests ceiling_ = kNoFlowCeiling;
  std::vector<Step> skyline_;  ///< emit()'s running lower-count staircase
};

/// Shared scaffolding of the merge-bag DPs: one frontier span per bag, one
/// span per (bag, child-prefix) convolution for the backpointer walk, and
/// the top-down reconstruction itself. runFrontierDp below fills it through
/// a policy's bag step (core/bag_steps). Templated on the entry type
/// (FrontierEntry / QosFrontierEntry): reconstruction only needs the two
/// backpointer fields both provide. Runs over any
/// TreeDecomposition-shaped schedule; the rooted-tree case is the width-1
/// adapter, where bags coincide with vertices.
template <typename Entry>
class BasicFrontierDp {
 public:
  BasicFrontierDp(const TreeDecomposition& decomp,
                  BasicFrontierArena<Entry>& arena)
      : decomp_(decomp), arena_(arena), frontier_(decomp.bagCount()),
        comboOffset_(decomp.bagCount(), 0) {
    std::int32_t running = 0;
    for (const BagId b : decomp_.schedule()) {
      comboOffset_[static_cast<std::size_t>(b)] = running;
      running += static_cast<std::int32_t>(decomp_.mergeChildren(b).size());
    }
    comboSpans_.resize(static_cast<std::size_t>(running));
  }

  BasicFrontierDp(const Tree& tree, BasicFrontierArena<Entry>& arena)
      : BasicFrontierDp(TreeDecomposition(tree), arena) {}

  FrontierSpan frontier(BagId b) const {
    return frontier_[static_cast<std::size_t>(b)];
  }
  /// Every bag's frontier, indexed by bag id.
  std::span<const FrontierSpan> frontiers() const { return frontier_; }
  void setFrontier(BagId b, FrontierSpan span) {
    frontier_[static_cast<std::size_t>(b)] = span;
  }

  /// Record the prefix frontier covering mergeChildren[0..childIndex] of b.
  void setCombo(BagId b, std::size_t childIndex, FrontierSpan span) {
    comboSpans_[comboBase(b) + childIndex] = span;
  }

  /// Seed a client bag with a single frontier point.
  void seedClient(BagId b, const Entry& entry) {
    const std::uint32_t begin = arena_.beginSpan();
    arena_.push(entry);
    setFrontier(b, arena_.endSpan(begin));
  }

  /// Walk the backpointers top-down from the root-bag frontier entry at
  /// `rootEntryIndex`, invoking onReplica(anchor) for every bag whose chosen
  /// entry places a replica (entry.child == 1).
  void reconstruct(std::int32_t rootEntryIndex,
                   const std::function<void(VertexId)>& onReplica) const {
    struct Todo {
      BagId node;
      std::int32_t entryIndex;
    };
    std::vector<Todo> stack{{decomp_.rootBag(), rootEntryIndex}};
    while (!stack.empty()) {
      const Todo todo = stack.back();
      stack.pop_back();
      if (decomp_.anchorIsClient(todo.node)) continue;
      const Entry& entry = arena_.at(
          frontier(todo.node), static_cast<std::size_t>(todo.entryIndex));
      if (entry.child == 1) onReplica(decomp_.anchor(todo.node));
      const std::span<const BagId> children = decomp_.mergeChildren(todo.node);
      std::int32_t combIdx = entry.prev;
      for (std::size_t ci = children.size(); ci-- > 0;) {
        const Entry& comb = arena_.at(
            comboSpans_[comboBase(todo.node) + ci], static_cast<std::size_t>(combIdx));
        stack.push_back({children[ci], comb.child});
        combIdx = comb.prev;
      }
    }
  }

  const TreeDecomposition& decomposition() const { return decomp_; }

 private:
  std::size_t comboBase(BagId b) const {
    return static_cast<std::size_t>(comboOffset_[static_cast<std::size_t>(b)]);
  }

  TreeDecomposition decomp_;
  BasicFrontierArena<Entry>& arena_;
  std::vector<FrontierSpan> frontier_;
  std::vector<FrontierSpan> comboSpans_;
  std::vector<std::int32_t> comboOffset_;
};

using FrontierDp = BasicFrontierDp<FrontierEntry>;

/// The one-shot driver of every frontier policy. Folds the bags of `dp`'s
/// schedule through `step`, one of the bag steps of core/bag_steps:
///  - a client bag takes step.seed;
///  - any other bag convolves its child frontiers, in `order`, into the
///    chain accumulator under step.chain's limits, recording each prefix for
///    the backpointer walk, then runs step.placeSkip.
/// `guard`, when non-null, is ticked once per bag. An empty frontier (some
/// child has no live state) is carried forward like any other: it empties
/// every ancestor's accumulator, so the root ends with no entry and the
/// verdict is infeasible. The incremental driver (online/incremental) does
/// the same, so both drivers fold the same bags and agree on every frontier.
/// A DP folded in raw `children` order (the bounds relaxation) records its
/// prefixes in that order and must not reconstruct.
template <class Step>
void runFrontierDp(BasicFrontierDp<typename Step::Entry>& dp,
                   typename Step::Merger& merger, Step& step, BudgetGuard* guard,
                   ChildOrder order = &TreeDecomposition::mergeChildren) {
  const TreeDecomposition& decomp = dp.decomposition();
  for (const BagId v : decomp.schedule()) {
    if (guard != nullptr) guard->checkpoint();
    if (decomp.anchorIsClient(v)) {
      dp.seedClient(v, step.seed(decomp.anchor(v)));
      continue;
    }
    const BagShape shape = decomp.shape(v);
    const FrontierLimits limits = step.chain(shape);
    FrontierSpan acc = merger.unit();
    const std::span<const BagId> children = (decomp.*order)(v);
    for (std::size_t ci = 0; ci < children.size(); ++ci) {
      acc = step.fold(merger, acc, dp.frontier(children[ci]),
                      decomp.anchor(children[ci]), limits);
      dp.setCombo(v, ci, acc);
    }
    dp.setFrontier(v, step.placeSkip(merger, acc, decomp.anchor(v), shape));
  }
}

/// A one-shot solve through runFrontierDp on a fresh per-solve arena. Writes
/// the frontier telemetry into `stats` when non-null. When the instance is
/// feasible, walks the backpointers from step.rootEntry and calls
/// onReplica(v) for every replica; returns false when it is infeasible.
template <class Step, class OnReplica>
bool solveFrontierDp(const Tree& tree, Step step, FrontierStats* stats,
                     BudgetGuard* guard, OnReplica&& onReplica) {
  BasicFrontierArena<typename Step::Entry> arena;
  arena.reset(4 * tree.vertexCount());
  typename Step::Merger merger(arena);
  BasicFrontierDp<typename Step::Entry> dp(TreeDecomposition(tree), arena);
  runFrontierDp(dp, merger, step, guard);
  if (stats != nullptr) {
    merger.noteArenaUsage();
    *stats = merger.stats();
  }
  const std::int32_t rootEntry =
      step.rootEntry(arena, dp.frontier(dp.decomposition().rootBag()));
  if (rootEntry < 0) return false;
  dp.reconstruct(rootEntry, std::forward<OnReplica>(onReplica));
  return true;
}

}  // namespace treeplace
