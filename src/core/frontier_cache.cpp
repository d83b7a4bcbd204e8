#include "core/frontier_cache.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "support/fault_injection.hpp"

namespace treeplace {
namespace {

/// The flat combo-table layout of a schedule: each bag's first slot and its
/// merge-child count. Returns the table size.
std::int32_t layoutCombos(const TreeDecomposition& decomp,
                          std::vector<std::int32_t>& offset,
                          std::vector<std::int32_t>& count) {
  offset.assign(decomp.bagCount(), 0);
  count.assign(decomp.bagCount(), 0);
  std::int32_t running = 0;
  for (const BagId v : decomp.schedule()) {
    const auto vi = static_cast<std::size_t>(v);
    offset[vi] = running;
    count[vi] = static_cast<std::int32_t>(decomp.mergeChildren(v).size());
    running += count[vi];
  }
  return running;
}

}  // namespace

FrontierCacheBase::FrontierCacheBase(const Tree& tree, bool withCombos)
    : decomp_(tree), withCombos_(withCombos), lastDirty_(tree.vertexCount(), 1) {
  stats_.trackedVertices = tree.vertexCount();
}

void FrontierCacheBase::resetTables() {
  const std::size_t n = decomp_.bagCount();
  frontier_.assign(n, FrontierSpan{});
  computedEpoch_.assign(n, 0);
  comboCap_.assign(n, -1);
  comboCeiling_.assign(n, 0);
  nextCompactCheck_ = 0;
  deadComboSlots_ = 0;
  pending_.clear();
  sweep_ = true;
  if (!withCombos_) return;
  const std::int32_t running = layoutCombos(decomp_, comboOffset_, comboCount_);
  comboSpans_.assign(static_cast<std::size_t>(running), FrontierSpan{});
  comboChild_.assign(static_cast<std::size_t>(running), kNoVertex);
}

void FrontierCacheBase::stamp(std::span<const VertexId> vertices) {
  const Tree& tree = decomp_.tree();
  for (const VertexId t : vertices) {
    // The vertex itself may already carry the current epoch — new vertices
    // are born dirty at it (grow) — but its ancestors still need stamping,
    // so the already-stamped short-circuit only applies from the parent up.
    bool first = true;
    for (VertexId v = t; v != kNoVertex; v = tree.parent(v), first = false) {
      auto& mark = lastDirty_[static_cast<std::size_t>(v)];
      if (mark == epoch_) {
        if (!first) break;  // the rest of the path is already stamped
        continue;
      }
      mark = epoch_;
      queue(v);
      ++stats_.invalidations;
    }
  }
}

void FrontierCacheBase::queue(VertexId v) {
  if (sweep_) return;
  if (pending_.size() >= decomp_.bagCount() / 8) {
    pending_.clear();
    sweep_ = true;
    return;
  }
  pending_.push_back(v);
}

void FrontierCacheBase::invalidateAll() {
  globalDirty_ = epoch_;
  sweep_ = true;
  stats_.invalidations += decomp_.bagCount();
  ++stats_.globalInvalidations;
}

void FrontierCacheBase::grow(BagId firstNew) {
  const std::size_t n = decomp_.bagCount();
  for (std::size_t v = lastDirty_.size(); v < n; ++v) queue(static_cast<VertexId>(v));
  lastDirty_.resize(n, epoch_);
  stats_.trackedVertices = n;
  frontier_.resize(n);
  computedEpoch_.resize(n, 0);
  comboCap_.resize(n, -1);
  comboCeiling_.resize(n, 0);
  if (!withCombos_) return;
  comboOffset_.resize(n, 0);
  comboCount_.resize(n, 0);
  // Only the attach parent gained a child: its chain moves to the table's
  // tail one slot longer, and each new bag gets its slots there. The old
  // slots travel with the child each one folded in; the prefix-reuse scan
  // revalidates those against the grown merge order, so a reshuffle
  // degrades to a partial or full re-convolve instead of silently pairing
  // spans with the wrong child.
  const auto moveToTail = [&](BagId v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto count = static_cast<std::int32_t>(decomp_.mergeChildren(v).size());
    const std::size_t tail = comboSpans_.size();
    const std::size_t old = static_cast<std::size_t>(comboOffset_[vi]);
    const std::int32_t keep = std::min(comboCount_[vi], count);
    comboSpans_.resize(tail + static_cast<std::size_t>(count));
    comboChild_.resize(tail + static_cast<std::size_t>(count), kNoVertex);
    for (std::int32_t ci = 0; ci < keep; ++ci) {
      comboSpans_[tail + static_cast<std::size_t>(ci)] = comboSpans_[old + static_cast<std::size_t>(ci)];
      comboChild_[tail + static_cast<std::size_t>(ci)] = comboChild_[old + static_cast<std::size_t>(ci)];
    }
    deadComboSlots_ += static_cast<std::size_t>(comboCount_[vi]);
    comboOffset_[vi] = static_cast<std::int32_t>(tail);
    comboCount_[vi] = count;
  };
  moveToTail(decomp_.tree().parent(decomp_.anchor(firstNew)));
  for (auto v = static_cast<std::size_t>(firstNew); v < n; ++v) {
    comboCount_[v] = 0;
    moveToTail(static_cast<BagId>(v));
  }
  if (deadComboSlots_ <= comboSpans_.size() / 2) return;
  // Holes dominate: lay the table out afresh, every chain kept.
  std::vector<std::int32_t> newOffset;
  std::vector<std::int32_t> newCount;
  const std::int32_t running = layoutCombos(decomp_, newOffset, newCount);
  std::vector<FrontierSpan> newSpans(static_cast<std::size_t>(running));
  std::vector<VertexId> newChild(static_cast<std::size_t>(running), kNoVertex);
  for (std::size_t vi = 0; vi < n; ++vi)
    for (std::int32_t ci = 0; ci < newCount[vi]; ++ci) {
      newSpans[static_cast<std::size_t>(newOffset[vi] + ci)] =
          comboSpans_[static_cast<std::size_t>(comboOffset_[vi] + ci)];
      newChild[static_cast<std::size_t>(newOffset[vi] + ci)] =
          comboChild_[static_cast<std::size_t>(comboOffset_[vi] + ci)];
    }
  comboSpans_ = std::move(newSpans);
  comboChild_ = std::move(newChild);
  comboOffset_ = std::move(newOffset);
  comboCount_ = std::move(newCount);
  deadComboSlots_ = 0;
}

std::span<const BagId> FrontierCacheBase::staleBags() {
  if (sweep_) return decomp_.schedule();
  const Tree& tree = decomp_.tree();
  std::sort(pending_.begin(), pending_.end(), [&tree](VertexId a, VertexId b) {
    return tree.postorderIndex(a) < tree.postorderIndex(b);
  });
  pending_.erase(std::unique(pending_.begin(), pending_.end()), pending_.end());
  return pending_;
}

template <typename Entry>
void FrontierCache<Entry>::reset() {
  // Reserve past the 16n compaction floor: the capacity-aware gate
  // (compactIfBloated) then compacts before any recompute could overflow the
  // slab, so it never doubles and steady-state pushes never pay a multi-MiB
  // slab copy inside a timed re-solve. The combo-less bounds cache sees no
  // latency bar and keeps the modest reserve instead.
  arena_.reset((withCombos_ ? 17 : 4) * decomp_.bagCount());
  resetTables();
}

/// Copy-compact the persistent arena once dead generations dominate, or
/// before the next recompute could overflow the slab: stage every clean
/// bag's spans, reset the slab, re-push. Spans are indices and within-span
/// backpointers are span-relative, so relocation preserves the
/// reconstruction walk; stale bags are recomputed by the refresh that
/// follows, so their spans are simply dropped.
///
/// The gate is capacity-aware. A slab that overflows doubles and never gives
/// the memory back (reset only reserves), and one whole-cache flush (a W
/// change the consumer cannot narrow down) recomputes about as many entries
/// as are live. So the cheap early return holds only
/// while 4n more entries still fit, and deferring a compaction only while a
/// recompute of the live set (plus n) still fits — until the slab has taken
/// as many entries as that margin left.
template <typename Entry>
void FrontierCache<Entry>::compactIfBloated() {
  const std::size_t n = decomp_.bagCount();
  const std::size_t total = arena_.entryCount();
  const std::size_t capacity = arena_.capacity();
  if (total <= 16 * n && total + 4 * n <= capacity) return;  // a few scratch generations
  // The live-scan below is O(n); once the slab passes the floor, rerun it
  // only after another ~n entries of churn (or once a recompute of the live
  // set measured last time might no longer fit), not on every refresh.
  if (total < nextCompactCheck_) return;

  const auto comboSlots = [&](std::size_t vi) {
    return std::span<FrontierSpan>(comboSpans_).subspan(
        static_cast<std::size_t>(comboOffset_[vi]), static_cast<std::size_t>(comboCount_[vi]));
  };
  std::size_t live = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (!isClean(static_cast<BagId>(vi))) continue;
    live += frontier_[vi].size;
    if (withCombos_)
      for (const FrontierSpan& span : comboSlots(vi)) live += span.size;
  }
  // Prefix reuse keeps per-refresh churn small, so a generous dead:live
  // ratio trades a few MiB of slab for compaction spikes rare enough to
  // stay out of the p99 re-solve latency.
  if (total <= 6 * live + 8 * n && total + live + n <= capacity) {
    nextCompactCheck_ = std::min(total + n, capacity - live - n);
    return;
  }

  // The staging copy is the compaction's own allocation, and an Allocation
  // fault site like slab growth.
  if (fault::fire(fault::Site::Allocation)) throw std::bad_alloc();
  std::vector<Entry> stage;
  stage.reserve(live);
  const auto copySpan = [&](FrontierSpan& span) {
    const auto begin = static_cast<std::uint32_t>(stage.size());
    const auto view = arena_.view(span);
    stage.insert(stage.end(), view.begin(), view.end());
    span = FrontierSpan{begin, span.size};
  };
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (!isClean(static_cast<BagId>(vi))) {
      // The stale bag's spans are dropped wholesale, so its combo chain
      // must not be prefix-reused by the upcoming recompute.
      frontier_[vi] = FrontierSpan{};
      comboCap_[vi] = -1;
      continue;
    }
    copySpan(frontier_[vi]);
    if (withCombos_)
      for (FrontierSpan& span : comboSlots(vi)) copySpan(span);
  }
  arena_.reset(std::max(2 * stage.size(), 4 * n));
  for (const Entry& e : stage) arena_.push(e);
  nextCompactCheck_ = 0;
  ++stats_.compactions;
}

template class FrontierCache<FrontierEntry>;
template class FrontierCache<QosFrontierEntry>;

}  // namespace treeplace
