#include "online/incremental.hpp"

#include <algorithm>
#include <atomic>
#include <new>
#include <utility>

#include "core/bag_steps.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "support/fault_injection.hpp"
#include "support/require.hpp"

namespace treeplace {
namespace detail {
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

template <typename Entry>
void FrontierCacheState<Entry>::init(const TreeDecomposition& decomp,
                                     bool withCombos) {
  const std::size_t n = decomp.bagCount();
  // Reserve past the 16n compaction floor: the capacity-aware gate
  // (compactIfBloated) then compacts before any recompute could overflow the
  // slab, so it never doubles and steady-state pushes never pay a multi-MiB
  // slab copy inside a timed re-solve. The combo-less bounds cache sees no
  // latency bar and keeps the modest reserve instead.
  arena.reset((withCombos ? 17 : 4) * n);
  frontier.assign(n, FrontierSpan{});
  computedEpoch.assign(n, 0);
  comboCap.assign(n, -1);
  comboCeiling.assign(n, 0);
  chosenEntry.assign(n, -1);
  chosenEpoch.assign(n, 0);
  replicaBit.assign(n, 0);
  liveEntries = 0;
  nextCompactCheck = 0;
  deadComboSlots = 0;
  comboSpans.clear();
  comboChild.clear();
  comboOffset.clear();
  comboCount.clear();
  if (!withCombos) return;
  const std::int32_t running = layoutCombos(decomp, comboOffset, comboCount);
  comboSpans.assign(static_cast<std::size_t>(running), FrontierSpan{});
  comboChild.assign(static_cast<std::size_t>(running), kNoVertex);
}

template <typename Entry>
void FrontierCacheState<Entry>::grow(const TreeDecomposition& decomp, bool withCombos,
                                     BagId firstNew) {
  const std::size_t n = decomp.bagCount();
  frontier.resize(n);
  computedEpoch.resize(n, 0);
  comboCap.resize(n, -1);
  comboCeiling.resize(n, 0);
  chosenEntry.resize(n, -1);
  chosenEpoch.resize(n, 0);
  replicaBit.resize(n, 0);
  if (!withCombos) return;
  comboOffset.resize(n, 0);
  comboCount.resize(n, 0);
  // Only the attach parent gained a child: its chain moves to the table's
  // tail one slot longer, and each new bag gets its slots there. The old
  // slots travel with the child each one folded in; the prefix-reuse scan
  // revalidates those against the grown merge order, so a reshuffle
  // degrades to a partial or full re-convolve instead of silently pairing
  // spans with the wrong child.
  const auto moveToTail = [&](BagId v) {
    const auto vi = static_cast<std::size_t>(v);
    const auto count = static_cast<std::int32_t>(decomp.mergeChildren(v).size());
    const std::size_t tail = comboSpans.size();
    const std::size_t old = static_cast<std::size_t>(comboOffset[vi]);
    const std::int32_t keep = std::min(comboCount[vi], count);
    comboSpans.resize(tail + static_cast<std::size_t>(count));
    comboChild.resize(tail + static_cast<std::size_t>(count), kNoVertex);
    for (std::int32_t ci = 0; ci < keep; ++ci) {
      comboSpans[tail + static_cast<std::size_t>(ci)] = comboSpans[old + static_cast<std::size_t>(ci)];
      comboChild[tail + static_cast<std::size_t>(ci)] = comboChild[old + static_cast<std::size_t>(ci)];
    }
    deadComboSlots += static_cast<std::size_t>(comboCount[vi]);
    comboOffset[vi] = static_cast<std::int32_t>(tail);
    comboCount[vi] = count;
  };
  moveToTail(decomp.tree().parent(decomp.anchor(firstNew)));
  for (auto v = static_cast<std::size_t>(firstNew); v < n; ++v) {
    comboCount[v] = 0;
    moveToTail(static_cast<BagId>(v));
  }
  if (deadComboSlots <= comboSpans.size() / 2) return;
  // Holes dominate: lay the table out afresh, every chain kept.
  std::vector<std::int32_t> newOffset;
  std::vector<std::int32_t> newCount;
  const std::int32_t running = layoutCombos(decomp, newOffset, newCount);
  std::vector<FrontierSpan> newSpans(static_cast<std::size_t>(running));
  std::vector<VertexId> newChild(static_cast<std::size_t>(running), kNoVertex);
  for (std::size_t vi = 0; vi < n; ++vi)
    for (std::int32_t ci = 0; ci < newCount[vi]; ++ci) {
      newSpans[static_cast<std::size_t>(newOffset[vi] + ci)] =
          comboSpans[static_cast<std::size_t>(comboOffset[vi] + ci)];
      newChild[static_cast<std::size_t>(newOffset[vi] + ci)] =
          comboChild[static_cast<std::size_t>(comboOffset[vi] + ci)];
    }
  comboSpans = std::move(newSpans);
  comboChild = std::move(newChild);
  comboOffset = std::move(newOffset);
  comboCount = std::move(newCount);
  deadComboSlots = 0;
}

template struct FrontierCacheState<FrontierEntry>;
template struct FrontierCacheState<QosFrontierEntry>;

/// `held` is set while a snapshot published from the buffer is alive
/// anywhere; the solver writes a buffer only while it is clear.
struct IncumbentBuffer {
  explicit IncumbentBuffer(Placement p) : placement(std::move(p)) {}

  Placement placement;
  std::atomic<bool> held{false};
};

}  // namespace detail

namespace {

/// Hand out `buffer`'s placement as an immutable snapshot. The lease keeps
/// the buffer alive past the solver and clears `held` once the last holder
/// lets go.
std::shared_ptr<const Placement> lease(
    const std::shared_ptr<detail::IncumbentBuffer>& buffer) {
  buffer->held.store(true, std::memory_order_relaxed);
  detail::IncumbentBuffer* raw = buffer.get();
  std::shared_ptr<detail::IncumbentBuffer> owner(
      raw, [keep = buffer](detail::IncumbentBuffer* b) {
        b->held.store(false, std::memory_order_release);
      });
  return {std::move(owner), &raw->placement};
}

/// Copy-compact the persistent arena once dead generations dominate, or
/// before the next recompute could overflow the slab: stage every clean
/// vertex's spans, reset the slab, re-push. Spans are indices and
/// within-span backpointers are span-relative, so relocation preserves the
/// reconstruction walk; dirty vertices are recomputed by the next resolve, so
/// their stale spans are simply dropped.
///
/// The gate is capacity-aware. A slab that overflows doubles and never gives
/// the memory back (reset only reserves), and one global W change recomputes
/// about as many entries as are live. So the cheap early return holds only
/// while 4n more entries still fit, and deferring a compaction only while a
/// recompute of the live set (plus n) still fits — until the slab has taken
/// as many entries as that margin left.
template <typename Entry>
void compactIfBloated(detail::FrontierCacheState<Entry>& cache, const Tree& tree,
                      const DirtyTracker& tracker, FrontierCacheStats& stats) {
  const std::size_t n = tree.vertexCount();
  const std::size_t total = cache.arena.entryCount();
  const std::size_t capacity = cache.arena.capacity();
  if (total <= 16 * n && total + 4 * n <= capacity) return;  // a few scratch generations
  // The live-scan below is O(n); once the slab passes the floor, rerun it
  // only after another ~n entries of churn (or once a recompute of the live
  // set measured last time might no longer fit), not on every resolve.
  if (total < cache.nextCompactCheck) return;

  const bool withCombos = !cache.comboOffset.empty();
  const auto isClean = [&](std::size_t vi) {
    return cache.computedEpoch[vi] >= tracker.dirtySince(static_cast<VertexId>(vi));
  };
  std::size_t live = 0;
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (!isClean(vi)) continue;
    live += cache.frontier[vi].size;
    if (withCombos) {
      const auto base = static_cast<std::size_t>(cache.comboOffset[vi]);
      for (std::int32_t ci = 0; ci < cache.comboCount[vi]; ++ci)
        live += cache.comboSpans[base + static_cast<std::size_t>(ci)].size;
    }
  }
  // Prefix reuse keeps per-resolve churn small, so a generous dead:live
  // ratio trades a few MiB of slab for compaction spikes rare enough to
  // stay out of the p99 re-solve latency.
  if (total <= 6 * live + 8 * n && total + live + n <= capacity) {
    cache.nextCompactCheck = std::min(total + n, capacity - live - n);
    return;
  }

  // The staging copy is the compaction's own allocation, and an Allocation
  // fault site like slab growth.
  if (fault::fire(fault::Site::Allocation)) throw std::bad_alloc();
  std::vector<Entry> stage;
  stage.reserve(live);
  const auto copySpan = [&](FrontierSpan& span) {
    const auto begin = static_cast<std::uint32_t>(stage.size());
    const auto view = cache.arena.view(span);
    stage.insert(stage.end(), view.begin(), view.end());
    span = FrontierSpan{begin, span.size};
  };
  for (std::size_t vi = 0; vi < n; ++vi) {
    if (!isClean(vi)) {
      // The dirty vertex's spans are dropped wholesale, so its combo chain
      // must not be prefix-reused by the upcoming recompute.
      cache.frontier[vi] = FrontierSpan{};
      cache.comboCap[vi] = -1;
      continue;
    }
    copySpan(cache.frontier[vi]);
    if (withCombos) {
      const auto base = static_cast<std::size_t>(cache.comboOffset[vi]);
      for (std::int32_t ci = 0; ci < cache.comboCount[vi]; ++ci)
        copySpan(cache.comboSpans[base + static_cast<std::size_t>(ci)]);
    }
  }
  cache.arena.reset(std::max(2 * stage.size(), 4 * n));
  for (const Entry& e : stage) cache.arena.push(e);
  cache.liveEntries = stage.size();
  cache.nextCompactCheck = 0;
  ++stats.compactions;
}

/// The incremental driver of every frontier policy. Recomputes the stale
/// bags of `visit` (in schedule order) through the policy's bag step, as
/// runFrontierDp (core/frontier) would, so every recomputed frontier is
/// bit-identical to a scratch solve's, empty ones included. The one
/// difference: a cache with combo tables reuses the clean prefix of a bag's
/// chain. The cached chain is exact up to the first slot whose recorded
/// child diverges from the current child order, or whose child frontier was
/// recomputed after the chain was built (children run first, so their
/// stamps are current). The chain's limits are part of the key: the ceiling
/// derives from W, so a capacity change re-convolves every chain.
/// `guard` is ticked BEFORE a bag is stamped, so an interrupted refresh
/// leaves that bag dirty and everything already recomputed exact. Returns
/// the number of bags recomputed.
template <class Step>
std::size_t refreshFrontiers(detail::FrontierCacheState<typename Step::Entry>& cache,
                             Step& step, const TreeDecomposition& decomp,
                             const DirtyTracker& tracker,
                             std::span<const BagId> visit, BudgetGuard* guard,
                             ChildOrder order) {
  typename Step::Merger merger(cache.arena);
  const bool withCombos = !cache.comboOffset.empty();
  std::size_t misses = 0;
  for (const BagId v : visit) {
    const auto vi = static_cast<std::size_t>(v);
    if (cache.computedEpoch[vi] >= tracker.dirtySince(v)) continue;
    if (guard != nullptr) guard->checkpoint();
    ++misses;
    const std::uint64_t prevEpoch = cache.computedEpoch[vi];
    cache.computedEpoch[vi] = tracker.epoch();

    if (decomp.anchorIsClient(v)) {
      const std::uint32_t begin = cache.arena.beginSpan();
      cache.arena.push(step.seed(decomp.anchor(v)));
      cache.frontier[vi] = cache.arena.endSpan(begin);
      continue;
    }

    const BagShape shape = decomp.shape(v);
    const FrontierLimits limits = step.chain(shape);
    const std::span<const BagId> children = (decomp.*order)(v);
    const auto base = withCombos ? static_cast<std::size_t>(cache.comboOffset[vi]) : 0;
    std::size_t f = 0;
    if (withCombos && prevEpoch > 0 && cache.comboCap[vi] == limits.maxCount &&
        cache.comboCeiling[vi] == limits.ceiling) {
      while (f < children.size() && cache.comboChild[base + f] == children[f] &&
             cache.computedEpoch[static_cast<std::size_t>(children[f])] <= prevEpoch)
        ++f;
    }
    FrontierSpan acc = f == 0 ? merger.unit() : cache.comboSpans[base + f - 1];
    for (std::size_t ci = f; ci < children.size(); ++ci) {
      const BagId child = children[ci];
      acc = step.fold(merger, acc, cache.frontier[static_cast<std::size_t>(child)],
                      decomp.anchor(child), limits);
      if (withCombos) {
        cache.comboSpans[base + ci] = acc;
        cache.comboChild[base + ci] = child;
      }
    }
    if (withCombos) {
      cache.comboCap[vi] = limits.maxCount;
      cache.comboCeiling[vi] = limits.ceiling;
    }
    cache.frontier[vi] = step.placeSkip(merger, acc, decomp.anchor(v), shape);
  }
  return misses;
}

}  // namespace

std::optional<Placement> solveOneShot(const ProblemInstance& instance,
                                      OnlinePolicy policy, BudgetGuard* guard) {
  switch (policy) {
    case OnlinePolicy::Closest: return solveClosestHomogeneous(instance, nullptr, guard);
    case OnlinePolicy::Multiple: return solveMultipleHomogeneousDP(instance, nullptr, guard);
    case OnlinePolicy::ClosestQos:
      return solveClosestHomogeneousQos(instance, nullptr, guard);
  }
  TREEPLACE_REQUIRE(false, "unknown online policy");
  return std::nullopt;
}

IncrementalSolver::IncrementalSolver(ProblemInstance& instance, OnlinePolicy policy)
    : instance_(&instance), policy_(policy),
      tracker_(instance.tree.vertexCount()) {
  instance.validate();
  stats_.trackedVertices = instance.tree.vertexCount();
  const TreeDecomposition decomp(instance.tree);
  if (policy_ == OnlinePolicy::ClosestQos)
    cacheQos_.init(decomp, true);
  else
    cache2d_.init(decomp, true);
  growVertexTables();
}

void IncrementalSolver::growVertexTables() {
  const std::size_t n = instance_->tree.vertexCount();
  pathMark_.resize(n, 0);
  clientMark_.resize(n, 0);
  remainingScratch_.resize(n, 0);
  if (policy_ == OnlinePolicy::Multiple)
    serverTakes_.resize(n);
  else
    serverClients_.resize(n);
}

void IncrementalSolver::noteDelta(const DeltaApplication& app) {
  if (app.structural) {
    const Tree& tree = instance_->tree;
    const TreeDecomposition decomp(tree);
    if (policy_ == OnlinePolicy::ClosestQos)
      cacheQos_.grow(decomp, true, app.firstNewVertex);
    else
      cache2d_.grow(decomp, true, app.firstNewVertex);
    stats_.trackedVertices = tree.vertexCount();
    growVertexTables();
    // Each new client is a 0 -> r rate change under a known vertex: the
    // assignment repair serves it like any other changed client, and the
    // buffers grow to the new vertex range as they are levelled.
    for (auto v = static_cast<std::size_t>(app.firstNewVertex); v < tree.vertexCount(); ++v)
      if (tree.isClient(static_cast<VertexId>(v)))
        pendingChangedClients_.push_back(static_cast<VertexId>(v));
  }
  stats_.invalidations += tracker_.note(instance_->tree, app, &pendingDirty_);
  if (app.global) {
    ++stats_.globalInvalidations;
    pendingGlobal_ = true;
    // W is every Multiple server's absorption budget: no assignment survives
    // a homogeneous capacity shift, so repair cannot patch it. Closest
    // assignments never read W — they follow the (possibly flipped) replica
    // set, which the ordinary repair path handles.
    if (policy_ == OnlinePolicy::Multiple) assignRebuildNeeded_ = true;
  }
  switch (app.kind) {
    case DeltaKind::RateChange:
    case DeltaKind::ClientLeave:
    case DeltaKind::SubtreeDetach:
      pendingChangedClients_.insert(pendingChangedClients_.end(),
                                    app.touched.begin(), app.touched.end());
      break;
    default:
      break;  // structural kinds queued their new clients above; capacity changes touch no rate
  }
}

DeltaApplication IncrementalSolver::apply(const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  noteDelta(app);
  return app;
}

DeltaApplication IncrementalSolver::applyWithoutInvalidation(
    const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  if (app.structural) noteDelta(app);
  return app;
}

std::shared_ptr<const Placement> IncrementalSolver::resolve(BudgetGuard* guard) {
  try {
    return resolveOnce(guard);
  } catch (const SolveInterrupted&) {
    // Budget trips are clean by construction (the checkpoint precedes the
    // vertex stamp): caches and dirty set are exact, so the verdict goes
    // straight to the caller and a later resolve continues where this one
    // stopped.
    throw;
  } catch (...) {
    // Anything else — an injected bad_alloc inside arena growth, a repair
    // invariant trip — may have left a stamped-but-garbage frontier or a
    // half-repaired back buffer behind. Self-check is by reconstruction: drop
    // everything, re-solve the same instance from scratch once.
    ++stats_.scratchFallbacks;
    invalidateCaches();
    try {
      return resolveOnce(guard);
    } catch (...) {
      invalidateCaches();  // leave a coherent (empty) state for the next call
      throw;
    }
  }
}

void IncrementalSolver::invalidateCaches() {
  const TreeDecomposition decomp(instance_->tree);
  if (policy_ == OnlinePolicy::ClosestQos)
    cacheQos_.init(decomp, true);
  else
    cache2d_.init(decomp, true);
  growVertexTables();
  pendingDirty_.clear();
  pendingGlobal_ = true;
  pendingChangedClients_.clear();
  flips_.clear();
  front_.reset();
  back_.reset();
  published_.reset();
  journalFlips_.clear();
  journalClients_.clear();
  backStale_ = true;
  assignRebuildNeeded_ = true;
}

Requests IncrementalSolver::foldCapacity() const {
  if (!pendingGlobal_ && pendingDirty_.empty()) return 0;  // nothing to fold
  const Requests W = instance_->homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");
  return W;
}

void IncrementalSolver::orderPendingDirty() {
  const Tree& tree = instance_->tree;
  std::sort(pendingDirty_.begin(), pendingDirty_.end(), [&tree](VertexId a, VertexId b) {
    return tree.postorderIndex(a) < tree.postorderIndex(b);
  });
  pendingDirty_.erase(std::unique(pendingDirty_.begin(), pendingDirty_.end()),
                      pendingDirty_.end());
}

// Mirror of BasicFrontierDp::reconstruct over the cached span tables, with
// subtree pruning: a vertex reached with the same entry index as the last
// walk and no mutation anywhere in its subtree since (chosenEpoch >=
// dirtySince — the dirty set is closed under parents, so the single stamp
// check covers the whole subtree) still has exact replicaBit state below it,
// and the walk skips the entire subtree. A localized mutation therefore
// costs O(changed region), not O(s), per reconstruction. Replica bits that
// flip are collected into flips_ — they drive the assignment repair.
template <typename Entry>
void IncrementalSolver::reconstruct(detail::FrontierCacheState<Entry>& cache,
                                    std::int32_t rootEntryIndex) {
  const TreeDecomposition decomp(instance_->tree);
  const std::uint64_t epoch = tracker_.epoch();
  struct Todo {
    BagId node;
    std::int32_t entryIndex;
  };
  std::vector<Todo> stack{{decomp.rootBag(), rootEntryIndex}};
  while (!stack.empty()) {
    const Todo todo = stack.back();
    stack.pop_back();
    const auto ni = static_cast<std::size_t>(todo.node);
    if (cache.chosenEntry[ni] == todo.entryIndex &&
        cache.chosenEpoch[ni] >= tracker_.dirtySince(todo.node)) {
      cache.chosenEpoch[ni] = epoch;
      continue;  // same choice, untouched subtree: bits below are exact
    }
    cache.chosenEntry[ni] = todo.entryIndex;
    cache.chosenEpoch[ni] = epoch;
    if (decomp.anchorIsClient(todo.node)) continue;
    const Entry& entry =
        cache.arena.at(cache.frontier[ni], static_cast<std::size_t>(todo.entryIndex));
    const char newBit = entry.child == 1 ? 1 : 0;
    if (cache.replicaBit[ni] != newBit) {
      cache.replicaBit[ni] = newBit;
      flips_.push_back(decomp.anchor(todo.node));
    }
    const std::span<const BagId> children = decomp.mergeChildren(todo.node);
    const auto base = static_cast<std::size_t>(cache.comboOffset[ni]);
    std::int32_t combIdx = entry.prev;
    for (std::size_t ci = children.size(); ci-- > 0;) {
      const Entry& comb = cache.arena.at(cache.comboSpans[base + ci],
                                         static_cast<std::size_t>(combIdx));
      stack.push_back({children[ci], comb.child});
      combIdx = comb.prev;
    }
  }
}

std::shared_ptr<const Placement> IncrementalSolver::resolveOnce(BudgetGuard* guard) {
  const Requests W = foldCapacity();
  switch (policy_) {
    case OnlinePolicy::Closest:
      return resolveWith(cache2d_, ClosestStep(*instance_, W), guard);
    case OnlinePolicy::Multiple:
      return resolveWith(cache2d_, MultipleStep(*instance_, W), guard);
    case OnlinePolicy::ClosestQos:
      return resolveWith(cacheQos_, ClosestQosStep(*instance_, W), guard);
  }
  TREEPLACE_REQUIRE(false, "unknown online policy");
  return nullptr;
}

// A global invalidation (or the first solve) sweeps the whole schedule;
// otherwise exactly the stamped bags, in schedule order, are recomputed —
// the clean rest of the tree is never even looked at.
template <class Step>
std::shared_ptr<const Placement> IncrementalSolver::resolveWith(
    detail::FrontierCacheState<typename Step::Entry>& cache, Step step,
    BudgetGuard* guard) {
  const TreeDecomposition decomp(instance_->tree);
  compactIfBloated(cache, instance_->tree, tracker_, stats_);
  std::span<const BagId> visit = decomp.schedule();
  if (!pendingGlobal_) {
    orderPendingDirty();
    visit = pendingDirty_;
  }
  const std::size_t misses = refreshFrontiers(cache, step, decomp, tracker_, visit,
                                              guard, &TreeDecomposition::mergeChildren);
  pendingDirty_.clear();
  pendingGlobal_ = false;
  stats_.misses += misses;
  stats_.hits += decomp.bagCount() - misses;
  stats_.arenaEntries = cache.arena.entryCount();
  stats_.arenaBytes = cache.arena.bytes();

  const std::int32_t rootEntry = step.rootEntry(
      cache.arena, cache.frontier[static_cast<std::size_t>(decomp.rootBag())]);
  if (rootEntry < 0) return nullptr;

  flips_.clear();
  reconstruct(cache, rootEntry);
  if (policy_ == OnlinePolicy::Multiple)
    refreshMultipleAssignment(cache.replicaBit);
  else
    refreshClosestAssignment(cache.replicaBit);
  return published_;
}

Placement& IncrementalSolver::levelBackBuffer() {
  const Placement& front = front_->placement;
  // The acquire pairs with the release in a snapshot lease's deleter: every
  // read a former holder made of this buffer happens before the writes below.
  if (!back_ || back_->held.load(std::memory_order_acquire)) {
    back_ = std::make_shared<detail::IncumbentBuffer>(front);
    ++stats_.snapshotCopies;
  } else if (backStale_) {
    back_->placement = front;  // reuses the buffer's capacity
    ++stats_.snapshotCopies;
  } else {
    Placement& back = back_->placement;
    back.grow(front.vertexCount());
    for (const VertexId v : journalFlips_) {
      if (front.hasReplica(v))
        back.addReplica(v);
      else
        back.removeReplica(v);
    }
    for (const VertexId c : journalClients_) {
      back.clearClient(c);
      back.assignRun(c, front.shares(c));
    }
  }
  backStale_ = false;
  back_->placement.grow(instance_->tree.vertexCount());
  return back_->placement;
}

void IncrementalSolver::publishRepaired(std::vector<VertexId>&& touched) {
  std::swap(front_, back_);
  journalFlips_.assign(flips_.begin(), flips_.end());
  journalClients_ = std::move(touched);
  published_ = lease(front_);
}

void IncrementalSolver::publishRebuilt(Placement&& fresh) {
  back_ = std::move(front_);
  front_ = std::make_shared<detail::IncumbentBuffer>(std::move(fresh));
  backStale_ = true;
  published_ = lease(front_);
}

void IncrementalSolver::refreshClosestAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const std::size_t n = instance.tree.vertexCount();
  if (assignRebuildNeeded_ || !front_) {
    Placement fresh(n);
    for (std::size_t vi = 0; vi < n; ++vi)
      if (replicaBit[vi] != 0) fresh.addReplica(static_cast<VertexId>(vi));
    assignClientsToClosest(instance, fresh);
    publishRebuilt(std::move(fresh));
    // The per-server index mirrors the fresh assignment; clients() order is
    // the scan order, so every list comes out sorted by construction.
    for (auto& list : serverClients_) list.clear();
    serverClients_.resize(n);
    for (const VertexId c : instance.tree.clients()) {
      const auto sh = published_->shares(c);
      if (!sh.empty())
        serverClients_[static_cast<std::size_t>(sh[0].server)].push_back(c);
    }
    assignRebuildNeeded_ = false;
    pendingChangedClients_.clear();
    return;
  }
  if (flips_.empty() && pendingChangedClients_.empty()) return;  // still the answer
  Placement& placement = levelBackBuffer();
  publishRepaired(repairClosestAssignment(replicaBit, placement));
}

// Closest (and Closest+QoS) assignment repair: the policy serves each client
// wholly from the nearest replica above it, so the only clients whose share
// can change are (a) the served clients of a removed replica, (b) clients of
// an added replica's subtree currently served from strictly above it — any
// such client sits in some strict ancestor's server list, sliced out by the
// subtree's client-index interval — and (c) clients whose own rate mutated.
// The per-server index pins those groups down exactly, so a flip near the
// root costs O(moved clients), not O(subtree).
std::vector<VertexId> IncrementalSolver::repairClosestAssignment(
    const std::vector<char>& replicaBit, Placement& placement) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  const auto& clients = tree.clients();

  // 1. Candidates, read off the pre-flip index.
  const std::uint64_t candidateGen = ++markGen_;
  std::vector<VertexId> moved;
  const auto candidate = [&](VertexId c) {
    auto& mark = clientMark_[static_cast<std::size_t>(c)];
    if (mark == candidateGen) return;  // nested flips / repeated mutations
    mark = candidateGen;
    moved.push_back(c);
  };
  const auto indexLess = [&tree](VertexId c, std::int32_t pos) {
    return tree.clientIndex(c) < pos;
  };
  for (const VertexId v : flips_) {
    const auto vi = static_cast<std::size_t>(v);
    if (replicaBit[vi] == 0) {
      for (const VertexId c : serverClients_[vi]) candidate(c);
      continue;
    }
    const auto span = tree.clientsInSubtree(v);
    const auto lo = static_cast<std::int32_t>(span.data() - clients.data());
    const auto hi = lo + static_cast<std::int32_t>(span.size());
    for (VertexId u = tree.parent(v); u != kNoVertex; u = tree.parent(u)) {
      const auto& list = serverClients_[static_cast<std::size_t>(u)];
      if (list.empty()) continue;
      for (auto it = std::lower_bound(list.begin(), list.end(), lo, indexLess);
           it != list.end() && tree.clientIndex(*it) < hi;
           ++it)
        candidate(*it);
    }
  }
  for (const VertexId c : pendingChangedClients_) candidate(c);
  pendingChangedClients_.clear();

  // 2. Replica set next: the walk-ups below must see the new set.
  for (const VertexId v : flips_) {
    if (replicaBit[static_cast<std::size_t>(v)] != 0)
      placement.addReplica(v);
    else
      placement.removeReplica(v);
  }

  // 3. Reassign each candidate against the new set, collecting index edits:
  // leavers are flagged per client (a client has at most one old server),
  // arrivals are grouped per new server and merged below.
  const std::uint64_t leftGen = ++markGen_;
  const std::uint64_t serverGen = ++markGen_;
  std::vector<VertexId> touchedServers;
  std::vector<std::pair<VertexId, VertexId>> arrivals;  // (server, client)
  const auto touchServer = [&](VertexId s) {
    auto& mark = pathMark_[static_cast<std::size_t>(s)];
    if (mark == serverGen) return;
    mark = serverGen;
    touchedServers.push_back(s);
  };
  for (const VertexId c : moved) {
    const auto sh = placement.shares(c);
    const VertexId oldServer = sh.empty() ? kNoVertex : sh[0].server;
    const Requests rate = instance.requests[static_cast<std::size_t>(c)];
    const VertexId newServer =
        rate > 0 ? firstReplicaAbove(tree, placement, c) : kNoVertex;
    TREEPLACE_REQUIRE(rate == 0 || newServer != kNoVertex,
                      "closest repair: client lost every replica on its root path");
    if (newServer == oldServer) {
      if (rate > 0 && rate != sh[0].amount) {  // same server, mutated rate
        placement.clearClient(c);
        placement.assign(c, newServer, rate);
      }
      continue;
    }
    placement.clearClient(c);
    if (newServer != kNoVertex) {
      placement.assign(c, newServer, rate);
      arrivals.push_back({newServer, c});
    }
    if (oldServer != kNoVertex) {
      clientMark_[static_cast<std::size_t>(c)] = leftGen;
      touchServer(oldServer);
    }
  }

  // 4. Index maintenance, batched per server: one filtering pass over each
  // old list, one sorted merge per receiving list (kept in client scan
  // order, matching the full-rebuild layout).
  for (const VertexId s : touchedServers) {
    auto& list = serverClients_[static_cast<std::size_t>(s)];
    std::erase_if(list, [&](VertexId c) {
      return clientMark_[static_cast<std::size_t>(c)] == leftGen;
    });
  }
  const auto scanLess = [&tree](VertexId a, VertexId b) {
    return tree.clientIndex(a) < tree.clientIndex(b);
  };
  std::sort(arrivals.begin(), arrivals.end(),
            [&](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first < b.first;
              return scanLess(a.second, b.second);
            });
  for (std::size_t i = 0; i < arrivals.size();) {
    auto& list = serverClients_[static_cast<std::size_t>(arrivals[i].first)];
    const auto mid = static_cast<std::ptrdiff_t>(list.size());
    const VertexId s = arrivals[i].first;
    for (; i < arrivals.size() && arrivals[i].first == s; ++i)
      list.push_back(arrivals[i].second);
    std::inplace_merge(list.begin(), list.begin() + mid, list.end(), scanLess);
  }
  return moved;
}

void IncrementalSolver::refreshMultipleAssignment(
    const std::vector<char>& replicaBit) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  if (assignRebuildNeeded_ || !front_) {
    publishRebuilt(assignMultipleRequests(instance, replicaBit));
    for (auto& takes : serverTakes_) takes.clear();
    serverTakes_.resize(tree.vertexCount());
    for (const VertexId c : tree.clients())
      for (const ServedShare& share : published_->shares(c))
        serverTakes_[static_cast<std::size_t>(share.server)].push_back(
            {c, share.amount});
    assignRebuildNeeded_ = false;
    pendingChangedClients_.clear();
    return;
  }
  if (flips_.empty() && pendingChangedClients_.empty()) return;  // still the answer
  Placement& placement = levelBackBuffer();
  publishRepaired(repairMultipleAssignment(replicaBit, placement));
}

// Multiple assignment repair by undo/replay. The greedy pass 3 absorbs, per
// replica in postorder, the still-unsatisfied clients of its subtree in
// client-scan order. Locality argument: a server with no changed vertex
// (rate mutation or replica flip) in its subtree sees an identical subtree
// state at its turn and absorbs identically — by induction bottom-up, only
// servers that are ancestors-or-self of a changed vertex can differ. Undoing
// *all* of those servers' takes closes the tracked-client set: any client a
// replayed server could need to absorb either had its rate changed or was
// served by an affected server (every server later in postorder that serves
// a client of subtree(s) is an ancestor of s, hence affected too) — so the
// replay only ever touches tracked clients, and the result is bit-identical
// to rerunning the full greedy.
std::vector<VertexId> IncrementalSolver::repairMultipleAssignment(
    const std::vector<char>& replicaBit, Placement& placement) {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  const Requests W = instance.homogeneousCapacity();
  const auto& clients = tree.clients();

  // 1. Affected servers: replica holders (old or new set) on the root path
  // of any changed vertex. Path walks stop at a vertex already visited this
  // repair, so shared path suffixes are walked once.
  const std::uint64_t pathGen = ++markGen_;
  std::vector<VertexId> affected;
  const auto walkUp = [&](VertexId start) {
    for (VertexId u = start; u != kNoVertex; u = tree.parent(u)) {
      auto& mark = pathMark_[static_cast<std::size_t>(u)];
      if (mark == pathGen) break;
      mark = pathGen;
      if (tree.isInternal(u) &&
          (placement.hasReplica(u) || replicaBit[static_cast<std::size_t>(u)] != 0))
        affected.push_back(u);
    }
  };
  for (const VertexId v : flips_) walkUp(v);
  for (const VertexId c : pendingChangedClients_) walkUp(c);

  // 2. Undo every affected server completely and track its clients; apply
  // the replica flips along the way (flipped vertices are on their own root
  // path, so every flip is in `affected`).
  const std::uint64_t clientGen = ++markGen_;
  std::vector<VertexId> tracked;
  const auto track = [&](VertexId c) {
    auto& mark = clientMark_[static_cast<std::size_t>(c)];
    if (mark == clientGen) return;
    mark = clientGen;
    tracked.push_back(c);
  };
  for (const VertexId u : affected) {
    auto& takes = serverTakes_[static_cast<std::size_t>(u)];
    for (const auto& [c, amount] : takes) {
      const Requests undone = placement.unassign(c, u);
      TREEPLACE_REQUIRE(undone == amount,
                        "multiple repair: take list out of sync with placement");
      track(c);
    }
    takes.clear();
    if (replicaBit[static_cast<std::size_t>(u)] != 0)
      placement.addReplica(u);
    else
      placement.removeReplica(u);
  }
  for (const VertexId c : pendingChangedClients_) track(c);
  pendingChangedClients_.clear();

  // 3. Residual demand of the tracked clients (untracked clients stay fully
  // served by unaffected servers).
  for (const VertexId c : tracked)
    remainingScratch_[static_cast<std::size_t>(c)] =
        instance.requests[static_cast<std::size_t>(c)] - placement.assignedOf(c);

  // 4. Replay in the exact greedy's order: servers in postorder, clients in
  // scan order within the server's subtree, absorb min(rest, budget).
  std::sort(affected.begin(), affected.end(), [&tree](VertexId a, VertexId b) {
    return tree.postorderIndex(a) < tree.postorderIndex(b);
  });
  std::sort(tracked.begin(), tracked.end(), [&tree](VertexId a, VertexId b) {
    return tree.clientIndex(a) < tree.clientIndex(b);
  });
  for (const VertexId s : affected) {
    if (replicaBit[static_cast<std::size_t>(s)] == 0) continue;  // lost its replica
    const auto span = tree.clientsInSubtree(s);
    const auto lo = static_cast<std::int32_t>(span.data() - clients.data());
    const auto hi = lo + static_cast<std::int32_t>(span.size());
    Requests budget = W;
    auto it = std::lower_bound(
        tracked.begin(), tracked.end(), lo,
        [&tree](VertexId c, std::int32_t pos) { return tree.clientIndex(c) < pos; });
    auto& takes = serverTakes_[static_cast<std::size_t>(s)];
    for (; it != tracked.end() && tree.clientIndex(*it) < hi && budget > 0; ++it) {
      const VertexId c = *it;
      auto& rest = remainingScratch_[static_cast<std::size_t>(c)];
      if (rest == 0) continue;
      const Requests take = std::min(rest, budget);
      placement.assign(c, s, take);
      takes.push_back({c, take});
      rest -= take;
      budget -= take;
    }
  }
  for (const VertexId c : tracked)
    TREEPLACE_REQUIRE(remainingScratch_[static_cast<std::size_t>(c)] == 0,
                      "multiple repair left unassigned demand — locality bug");
  return tracked;
}

IncrementalBounds::IncrementalBounds(ProblemInstance& instance)
    : instance_(&instance), tracker_(instance.tree.vertexCount()) {
  stats_.trackedVertices = instance.tree.vertexCount();
  cache_.init(TreeDecomposition(instance.tree), false);
  refresh();
}

void IncrementalBounds::noteDelta(const DeltaApplication& app) {
  if (app.structural) {
    cache_.grow(TreeDecomposition(instance_->tree), false, app.firstNewVertex);
    stats_.trackedVertices = instance_->tree.vertexCount();
  }
  stats_.invalidations += tracker_.note(instance_->tree, app);
  if (app.global) ++stats_.globalInvalidations;
}

DeltaApplication IncrementalBounds::apply(const InstanceDelta& delta) {
  DeltaApplication app = applyDelta(*instance_, delta);
  noteDelta(app);
  return app;
}

// Incremental twin of FrontierSubtreeRelaxation::build: the frontier pass is
// memoized per subtree (the expensive part) and folds in raw child order, as
// the one-shot does; the derived passes are linear scans recomputed
// wholesale.
void IncrementalBounds::refresh() {
  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  compactIfBloated(cache_, tree, tracker_, stats_);
  const TreeDecomposition decomp(tree);
  RelaxationStep step(instance);
  const std::size_t misses =
      refreshFrontiers(cache_, step, decomp, tracker_, decomp.schedule(), nullptr,
                       &TreeDecomposition::children);
  stats_.misses += misses;
  stats_.hits += decomp.bagCount() - misses;
  stats_.arenaEntries = cache_.arena.entryCount();
  stats_.arenaBytes = cache_.arena.bytes();
  floors_ = deriveSubtreeFloors(instance, cache_.arena, cache_.frontier);
}

}  // namespace treeplace
