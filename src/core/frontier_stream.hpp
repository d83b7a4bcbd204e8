#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "core/decomposition.hpp"
#include "core/frontier.hpp"
#include "support/budget.hpp"
#include "support/require.hpp"
#include "tree/problem.hpp"

namespace treeplace {

/// Tuning knobs of the width-capped streaming frontier path.
struct FrontierStreamOptions {
  /// Maximum entries kept per frontier: a safety net, not the working
  /// bound. The streaming DPs keep live states only (flow at most what the
  /// bag's ancestors can absorb, see core/frontier.hpp), so a Closest
  /// accumulator never exceeds its child count + 1 and the default cap does
  /// not fire on the feasible-at-scale profiles, even at s=10^6. A merge
  /// whose pruned result is still wider is downsampled to this many points
  /// (first and last always kept, interior strided), keeping an
  /// O(widthCap * depth) memory bound and an O(widthCap^2) per-merge time
  /// bound. Every surviving point stays achievable, so capped results are
  /// valid upper bounds. Must be at least 2.
  std::int32_t widthCap = 512;
  /// Optional shared budget: the driving preorder sweep ticks it per visit
  /// (throwing SolveInterrupted on a trip) and charges its arena's
  /// high-water against the memory budget. Non-owning; must outlive the run.
  BudgetGuard* guard = nullptr;
};

/// Telemetry of one streaming DP run.
struct FrontierStreamStats {
  std::size_t peakWidth = 0;  ///< widest frontier produced (pre-cap)
  /// Arena high-water mark, in entries: the open accumulators plus, during a
  /// merge, its inputs and its uncapped output above them.
  std::size_t peakStackEntries = 0;
  /// Arena high-water mark in bytes (capacity times the step's entry size,
  /// backpointer slots included); the merger's bucket scratch is not counted.
  std::size_t peakBytes = 0;
  /// The merger's FrontierStats::convolutions: one per child merge, plus one
  /// per QoS place/skip (a sweep batch). The 2-D place/skip steps count none.
  std::size_t convolutions = 0;
  std::size_t pairsMerged = 0;  ///< candidate entries examined
  std::size_t cappedMerges = 0;     ///< merges that hit widthCap
  std::size_t droppedPoints = 0;    ///< Pareto points discarded by capped merges
  /// Quantified cap damage: per capped merge, the largest replica-count gap
  /// between consecutive kept points that had points dropped between them,
  /// summed over all capped merges. Dropping a point forces later steps onto
  /// the next kept point, whose flow is no worse (flows strictly decrease
  /// along a 2-D frontier) and whose count exceeds the dropped one by at most
  /// that gap — so for the 2-D DPs (Closest/Multiple)
  ///   exact optimum >= capped answer - capGapBound.
  /// The 3-D QoS count tracks the same quantity as telemetry, but the
  /// slack dimension breaks the no-worse-flow argument, so there it is NOT a
  /// certified bracket.
  std::int64_t capGapBound = 0;
  /// No merge was ever capped: the run explored the full Pareto frontier and
  /// its answer matches the exact DP.
  bool exact = true;
};

/// Result of a streaming (count-only) policy solve. The streaming DPs drop
/// the reconstruction backpointers, so they return the replica count but no
/// placement; `stats.exact` says whether the count is provably optimal or an
/// achievable upper bound (some merge hit widthCap). A capped run is
/// bracketed: for the 2-D policies the optimum lies in
/// [replicasFloor(), replicas] (see FrontierStreamStats::capGapBound).
struct StreamCountResult {
  bool feasible = false;
  std::int32_t replicas = 0;
  FrontierStreamStats stats;

  /// Certified lower bound on the exact optimum for the 2-D DPs
  /// (Closest/Multiple): the capped count minus the accumulated cap gap.
  /// Equals `replicas` on uncapped runs. Not certified for the QoS count.
  std::int32_t replicasFloor() const {
    const std::int64_t floor = static_cast<std::int64_t>(replicas) - stats.capGapBound;
    return floor > 0 ? static_cast<std::int32_t>(floor) : 0;
  }
};

/// Move the merged frontier `out` down onto `to` (to <= out.begin), strided
/// down to `widthCap` points when it is wider: the first (min count) and
/// last (min flow) points are always kept, the interior evenly strided.
/// Survivors are real reachable states, so a capped frontier stays
/// achievable and its answers become upper bounds, not guesses. Records the
/// damage in `stats` (see FrontierStreamStats::capGapBound) and returns the
/// number of points kept at `to`.
template <typename Entry>
std::size_t capOnto(BasicFrontierArena<Entry>& arena, FrontierSpan out, std::uint32_t to,
                    std::size_t widthCap, FrontierStreamStats& stats) {
  const FrontierSpan dst{to, out.size};
  const std::size_t width = out.size;
  if (width <= widthCap) {
    if (out.begin != to)
      for (std::size_t k = 0; k < width; ++k) arena.at(dst, k) = arena.at(out, k);
    return width;
  }
  ++stats.cappedMerges;
  stats.exact = false;
  // Dropping an interior point can cost later steps at most the count gap to
  // the next kept point; the merge's worst case is the max such gap, and the
  // gaps of successive capped merges add.
  std::size_t kept = 0;
  std::int32_t maxGap = 0;
  std::int32_t lastCount = 0;
  std::size_t last = width;  // sentinel: nothing kept yet
  for (std::size_t k = 0; k < widthCap; ++k) {
    const std::size_t idx = k * (width - 1) / (widthCap - 1);
    if (idx == last) continue;
    const Entry e = arena.at(out, idx);
    if (last != width && idx > last + 1) maxGap = std::max(maxGap, e.count - lastCount - 1);
    last = idx;
    lastCount = e.count;
    arena.at(dst, kept++) = e;
  }
  stats.droppedPoints += width - kept;
  stats.capGapBound += maxGap;
  return kept;
}

/// Preorder positions gathered per block of the sweep: the reads by vertex
/// id run as independent loads ahead of the fold instead of one dependent
/// cache miss at a time.
inline constexpr std::size_t kSweepBlock = 2048;
/// Positions between a step.prefetch(v) and the visit of v. Prefetching
/// during the gather instead made the ClosestQos count ~1.1x slower at
/// s=10^6: the lines were evicted, or still queued behind the gather's own
/// loads, by the time the merges read them.
inline constexpr std::int32_t kPrefetchDistance = 64;

/// Count-only frontier DP of a bag step (core/bag_steps) at scales where the
/// exact backpointer arena cannot fit. The step runs on its own Merger, the
/// one the frontier cache uses, over a single arena kept as a stack: one
/// accumulator per open vertex of the current root path, so memory is
/// O(widthCap * depth) instead of O(total entries). Every merge writes its
/// output above its inputs; the driver then moves that output down onto the
/// accumulator it replaces, caps it (capOnto) and pops the arena above it.
/// Backpointers are never read: the counts come without placements.
///
/// One linear sweep of preorder positions drives it. The frame stack holds
/// the open internal vertices; at each position the sweep first closes the
/// frames whose subtree ended there (step.placeSkip, then step.fold into the
/// parent), then visits the vertex: a client's step.seed is folded into the
/// top accumulator, an internal vertex opens a frame with the merger's unit
/// frontier. Children are therefore folded in raw id order — the order
/// preorder lists them — and the fold sequence, every count and every stats
/// field are a function of the tree shape alone, while the memory traffic is
/// a forward scan whatever the vertex numbering.
///
/// Per-vertex reads by id happen in blocks of kSweepBlock positions: each
/// client's seed is taken into a fixed buffer (no O(n) allocation per solve),
/// and while the block is folded, step.prefetch(v) issues the reads v's fold
/// and place/skip will make kPrefetchDistance positions ahead. The guard is
/// ticked once per visit: (n - 1) child visits plus one close per internal
/// vertex. A fold that leaves no live state stops the sweep, and the result
/// is infeasible. Throws PreconditionError when options.widthCap < 2: a
/// narrower cap cannot keep both frontier ends.
template <class Step>
StreamCountResult sweepStreamingCount(const Tree& tree, Step& step,
                                      const FrontierStreamOptions& options) {
  TREEPLACE_REQUIRE(options.widthCap >= 2, "the width cap keeps both frontier ends");
  using Entry = typename Step::Entry;
  struct Frame {
    std::uint32_t accBegin;  ///< first arena entry of the accumulator
    std::int32_t end;        ///< preorder position one past the subtree
    BagShape shape;          ///< of the vertex's subtree
    VertexId anchor;
  };
  struct Slot {
    VertexId v;
    bool client;
    std::int32_t end;
    std::int32_t clients;
    Entry seed;  ///< clients only
  };
  const std::span<const VertexId> order = tree.preorder();
  const auto n = static_cast<std::int32_t>(order.size());
  const auto widthCap = static_cast<std::size_t>(options.widthCap);
  BudgetGuard* const guard = options.guard;
  BasicFrontierArena<Entry> arena;
  typename Step::Merger merger(arena);
  StreamCountResult result;
  FrontierStreamStats& stats = result.stats;
  std::vector<Slot> block(std::min<std::size_t>(kSweepBlock, order.size()));
  std::vector<Frame> stack;
  stack.reserve(64);

  // The arena only grows inside a merge or push, so its high-water marks are
  // read right after one, before the result is moved down.
  const auto noteStack = [&] {
    stats.peakStackEntries = std::max(stats.peakStackEntries, arena.entryCount());
    if (arena.bytes() <= stats.peakBytes) return;
    stats.peakBytes = arena.bytes();
    if (guard != nullptr) guard->noteMemory(stats.peakBytes);
  };
  const auto settle = [&](FrontierSpan out, std::uint32_t accBegin) {
    noteStack();
    arena.truncate(accBegin + capOnto(arena, out, accBegin, widthCap, stats));
  };
  // Folds [childBegin, top) into the top frame's accumulator; false when it
  // left nothing live.
  const auto fold = [&](std::uint32_t childBegin, VertexId childAnchor) {
    const Frame& parent = stack.back();
    settle(step.fold(merger, {parent.accBegin, childBegin - parent.accBegin},
                     arena.endSpan(childBegin), childAnchor, step.chain(parent.shape)),
           parent.accBegin);
    return arena.entryCount() != parent.accBegin;
  };
  const auto open = [&](std::int32_t pos, const Slot& slot) {
    const auto depth = static_cast<std::int32_t>(stack.size());
    stack.push_back({arena.beginSpan(), slot.end,
                     {slot.clients, slot.end - pos - slot.clients, depth}, slot.v});
    merger.unit();
    noteStack();
  };
  const auto close = [&] {
    if (guard != nullptr) guard->checkpoint();
    const Frame child = stack.back();
    settle(step.placeSkip(merger, arena.endSpan(child.accBegin), child.anchor, child.shape),
           child.accBegin);
    stack.pop_back();
    return stack.empty() || fold(child.accBegin, child.anchor);
  };
  const auto gather = [&](std::int32_t pos, Slot& slot) {
    const VertexId v = order[static_cast<std::size_t>(pos)];
    slot.v = v;
    slot.client = tree.clientsBefore(pos + 1) != tree.clientsBefore(pos);
    slot.end = slot.client ? pos + 1 : tree.preorderEnd(v);
    slot.clients = tree.clientsBefore(slot.end) - tree.clientsBefore(pos);
    if (slot.client) slot.seed = step.seed(v);
  };

  gather(0, block[0]);
  open(0, block[0]);
  bool alive = true;
  for (std::int32_t base = 1; base < n && alive;) {
    const std::int32_t size =
        std::min(n - base, static_cast<std::int32_t>(block.size()));
    for (std::int32_t k = 0; k < size; ++k)
      gather(base + k, block[static_cast<std::size_t>(k)]);
    for (std::int32_t k = 0; k < size; ++k) {
      const std::int32_t pos = base + k;
      if (k + kPrefetchDistance < size)
        step.prefetch(block[static_cast<std::size_t>(k + kPrefetchDistance)].v);
      while (alive && stack.back().end <= pos) alive = close();
      if (!alive) break;
      if (guard != nullptr) guard->checkpoint();
      const Slot& slot = block[static_cast<std::size_t>(k)];
      if (!slot.client) {
        open(pos, slot);
        continue;
      }
      const std::uint32_t childBegin = arena.beginSpan();
      arena.push(slot.seed);
      noteStack();
      alive = fold(childBegin, slot.v);
    }
    base += size;
  }
  while (alive && !stack.empty()) alive = close();

  const FrontierStats& merged = merger.stats();
  stats.peakWidth = merged.peakWidth;
  stats.convolutions = merged.convolutions;
  stats.pairsMerged = merged.entriesMerged;
  // The root frontier now occupies the whole arena.
  const FrontierSpan root = arena.endSpan(0);
  const std::int32_t entry = alive ? step.rootEntry(arena, root) : -1;
  if (entry >= 0) {
    result.feasible = true;
    result.replicas = arena.at(root, static_cast<std::size_t>(entry)).count;
  }
  return result;
}

}  // namespace treeplace
