#include "core/frontier_cache.hpp"

#include <algorithm>
#include <new>
#include <utility>

#include "support/fault_injection.hpp"

namespace treeplace {

FrontierCacheBase::FrontierCacheBase(const Tree& tree, bool withCombos)
    : tree_(&tree), withCombos_(withCombos) {
  stats_.trackedVertices = tree.vertexCount();
}

void FrontierCacheBase::resetTables() {
  // Fresh records are never computed, and the global stamp keeps every bag
  // dirty since now, so a consumer's memo of an older walk cannot match.
  const std::size_t n = tree_->vertexCount();
  frontier_.assign(n, FrontierSpan{});
  epochs_.clear();
  combos_.clear();
  if (withCombos_) {
    chains_.assign(n, Chain{});
    combos_.reserve(n);  // one slot per non-root bag
  }
  globalDirty_ = epoch_;
  cold_ = true;
  sweptAt_ = 0;
  nextCompactCheck_ = 0;
  pending_.clear();
  sweep_ = true;
}

void FrontierCacheBase::stamp(std::span<const VertexId> vertices) {
  const Tree& tree = *tree_;
  ensureEpochs();
  for (const VertexId t : vertices) {
    // The vertex itself may already carry the current epoch — new vertices
    // are born dirty at it (grow) — but its ancestors still need stamping,
    // so the already-stamped short-circuit only applies from the parent up.
    bool first = true;
    for (VertexId v = t; v != kNoVertex; v = tree.parent(v), first = false) {
      auto& mark = epochs_[static_cast<std::size_t>(v)].lastDirty;
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
  if (pending_.size() >= tree_->vertexCount() / 8) {
    pending_.clear();
    sweep_ = true;
    return;
  }
  pending_.push_back(v);
}

void FrontierCacheBase::invalidateAll() {
  globalDirty_ = epoch_;
  cold_ = true;
  sweep_ = true;
  stats_.invalidations += tree_->vertexCount();
  ++stats_.globalInvalidations;
}

void FrontierCacheBase::grow(VertexId firstNew) {
  const std::size_t n = tree_->vertexCount();
  for (auto v = static_cast<std::size_t>(firstNew); v < n; ++v) queue(static_cast<VertexId>(v));
  ensureEpochs();
  epochs_.resize(n, BagEpochs{.lastDirty = epoch_});
  frontier_.resize(n);
  stats_.trackedVertices = n;
  if (!withCombos_) return;
  chains_.resize(n);
  // The parent's chain lacks a slot for its new child: it is laid out anew
  // at its next recompute, and compaction drops the old slots.
  chains_[static_cast<std::size_t>(tree_->parent(firstNew))] = Chain{};
}

std::span<const VertexId> FrontierCacheBase::staleBags() {
  if (sweep_) return tree_->postorder();
  const Tree& tree = *tree_;
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
  // slab copy inside a timed re-solve. The combo-less relaxation cache sees
  // no latency bar and keeps the modest reserve instead.
  arena_.reset((withCombos_ ? 17 : 4) * tree_->vertexCount());
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
  const std::size_t n = tree_->vertexCount();
  const std::size_t total = arena_.entryCount();
  const std::size_t capacity = arena_.capacity();
  if (total <= 16 * n && total + 4 * n <= capacity) return;  // a few scratch generations
  // The live-scan below is O(n); once the slab passes the floor, rerun it
  // only after another ~n entries of churn (or once a recompute of the live
  // set measured last time might no longer fit), not on every refresh.
  if (total < nextCompactCheck_) return;

  // A laid-out chain of a clean bag has one slot per child.
  const auto chainSlots = [&](std::size_t vi) {
    const std::int32_t begin = withCombos_ ? chains_[vi].begin : -1;
    if (begin < 0) return std::pair<std::size_t, std::size_t>{0, 0};
    return std::pair{static_cast<std::size_t>(begin),
                     tree_->children(static_cast<VertexId>(vi)).size()};
  };
  std::size_t live = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (!isClean(static_cast<VertexId>(vi))) continue;
    const auto [begin, size] = chainSlots(vi);
    live += frontier_[vi].size;
    for (std::size_t k = begin; k < begin + size; ++k) live += combos_[k].span.size;
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
  // The chains of clean bags move into a table without the holes that
  // relocated chains left behind: one slot per non-root bag at most.
  std::vector<ComboSlot> combos;
  combos.reserve(n);
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (!isClean(static_cast<VertexId>(vi))) {
      // The stale bag's spans are dropped wholesale, so its combo chain
      // must not be prefix-reused by the upcoming recompute.
      frontier_[vi] = FrontierSpan{};
      if (withCombos_) chains_[vi] = Chain{};
      continue;
    }
    copySpan(frontier_[vi]);
    const auto [begin, size] = chainSlots(vi);
    if (withCombos_ && chains_[vi].begin >= 0)
      chains_[vi].begin = static_cast<std::int32_t>(combos.size());
    for (std::size_t k = begin; k < begin + size; ++k) {
      copySpan(combos_[k].span);
      combos.push_back(combos_[k]);
    }
  }
  combos_ = std::move(combos);
  arena_.reset(std::max(2 * stage.size(), 4 * n));
  for (const Entry& e : stage) arena_.push(e);
  nextCompactCheck_ = 0;
  ++stats_.compactions;
}

template class FrontierCache<FrontierEntry>;
template class FrontierCache<QosFrontierEntry>;

}  // namespace treeplace
