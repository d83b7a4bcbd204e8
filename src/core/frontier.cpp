#include "core/frontier.hpp"

#include <algorithm>
#include <limits>

#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr Requests kHugeFlow = std::numeric_limits<Requests>::max() / 4;

}  // namespace

void FrontierStats::merge(const FrontierStats& other) {
  peakWidth = std::max(peakWidth, other.peakWidth);
  arenaBytes = std::max(arenaBytes, other.arenaBytes);
  entriesMerged += other.entriesMerged;
  convolutions += other.convolutions;
}

FrontierSpan FrontierConvolver::unit() {
  const std::uint32_t begin = arena_->beginSpan();
  arena_->push({0, 0, -1, -1});
  return arena_->endSpan(begin);
}

void FrontierConvolver::ensureBuckets(std::size_t width) {
  if (bucketFlow_.size() < width) {
    bucketFlow_.resize(width);
    bucketPrev_.resize(width);
    bucketChild_.resize(width);
  }
  std::fill_n(bucketFlow_.begin(), width, kHugeFlow);
}

FrontierSpan FrontierConvolver::sweep(std::int32_t minCount, std::int32_t reach) {
  const std::uint32_t begin = arena_->beginSpan();
  Requests bestFlow = kHugeFlow;
  for (std::int32_t c = minCount; c <= reach; ++c) {
    const auto ci = static_cast<std::size_t>(c - minCount);
    if (bucketFlow_[ci] >= bestFlow) continue;  // dominated or empty
    bestFlow = bucketFlow_[ci];
    arena_->push({c, bestFlow, bucketPrev_[ci], bucketChild_[ci]});
  }
  const FrontierSpan out = arena_->endSpan(begin);
  stats_.peakWidth = std::max(stats_.peakWidth, static_cast<std::size_t>(out.size));
  return out;
}

FrontierSpan FrontierConvolver::convolve(FrontierSpan a, FrontierSpan b,
                                         std::int32_t maxCount, Requests ceiling) {
  const std::span<const FrontierEntry> fa = arena_->view(a);
  const std::span<const FrontierEntry> fb = arena_->view(b);
  ++stats_.convolutions;
  // Flows strictly decrease, so each input's dead states form a prefix.
  const auto firstLive = [ceiling](std::span<const FrontierEntry> f) {
    std::size_t k = 0;
    while (k < f.size() && f[k].flow > ceiling) ++k;
    return k;
  };
  const std::size_t ia = firstLive(fa);
  const std::size_t jb = firstLive(fb);
  if (ia == fa.size() || jb == fb.size()) return {arena_->beginSpan(), 0};

  const std::int32_t minSum = fa[ia].count + fb[jb].count;
  const std::int32_t reach =
      std::min(maxCount, fa.back().count + fb.back().count);
  if (reach < minSum) return {arena_->beginSpan(), 0};
  ensureBuckets(static_cast<std::size_t>(reach - minSum) + 1);

  // jLo: the first j whose pair with the current i stays under the ceiling.
  // It only moves down as i advances (fa's flow shrinks), so the dead pairs
  // are skipped in O(|a| + |b|) overall and never reach a bucket.
  std::size_t jLo = fb.size();
  std::size_t pairs = 0;
  for (std::size_t i = ia; i < fa.size(); ++i) {
    const std::int32_t ca = fa[i].count;
    if (ca + fb[jb].count > reach) break;  // counts ascend: nothing below fits
    const Requests flowA = fa[i].flow;
    while (jLo > jb && flowA + fb[jLo - 1].flow <= ceiling) --jLo;
    for (std::size_t j = jLo; j < fb.size(); ++j) {
      const std::int32_t c = ca + fb[j].count;
      if (c > reach) break;  // fb counts ascend too
      ++pairs;
      const Requests flow = flowA + fb[j].flow;
      const auto ci = static_cast<std::size_t>(c - minSum);
      if (flow < bucketFlow_[ci]) {
        bucketFlow_[ci] = flow;
        bucketPrev_[ci] = static_cast<std::int32_t>(i);
        bucketChild_[ci] = static_cast<std::int32_t>(j);
      }
    }
  }
  stats_.entriesMerged += pairs;
  return sweep(minSum, reach);
}

FrontierSpan FrontierConvolver::pruneCandidates(
    std::span<const FrontierEntry> candidates, std::int32_t maxCount,
    Requests ceiling) {
  std::int32_t lo = maxCount;
  std::int32_t reach = -1;
  for (const FrontierEntry& e : candidates) {
    if (e.count > maxCount || e.flow > ceiling) continue;
    lo = std::min(lo, e.count);
    reach = std::max(reach, e.count);
  }
  stats_.entriesMerged += candidates.size();
  if (reach < 0) return {arena_->beginSpan(), 0};
  ensureBuckets(static_cast<std::size_t>(reach - lo) + 1);

  for (const FrontierEntry& e : candidates) {
    if (e.count > reach || e.flow > ceiling) continue;
    const auto ci = static_cast<std::size_t>(e.count - lo);
    if (e.flow < bucketFlow_[ci]) {
      bucketFlow_[ci] = e.flow;
      bucketPrev_[ci] = e.prev;
      bucketChild_[ci] = e.child;
    }
  }
  return sweep(lo, reach);
}

void FrontierConvolver::noteArenaUsage() {
  stats_.arenaBytes = std::max(stats_.arenaBytes, arena_->bytes());
}

// --------------------------------------------------------------------------
// QosFrontierSweep
// --------------------------------------------------------------------------

FrontierSpan QosFrontierSweep::unit() {
  const std::uint32_t begin = arena_->beginSpan();
  arena_->push({0, 0, std::numeric_limits<double>::infinity(), -1, -1});
  return arena_->endSpan(begin);
}

void QosFrontierSweep::begin(std::int32_t minCount, std::int32_t maxCount,
                             Requests ceiling) {
  const std::int32_t width = std::max(maxCount - minCount + 1, 0);
  if (buckets_.size() < static_cast<std::size_t>(width))
    buckets_.resize(static_cast<std::size_t>(width));
  for (std::int32_t c = 0; c < bucketsInUse_; ++c)
    buckets_[static_cast<std::size_t>(c)].clear();
  bucketsInUse_ = width;
  minCount_ = minCount;
  ceiling_ = ceiling;
}

bool QosFrontierSweep::staircaseInsert(std::vector<Step>& steps,
                                       const Step& entry) {
  // p = first step with flow >= entry.flow; everything before it has smaller
  // flow, and the last of those carries their best slack (slack ascends).
  std::size_t p = 0;
  while (p < steps.size() && steps[p].flow < entry.flow) ++p;
  if (p > 0 && steps[p - 1].slack >= entry.slack) return false;  // dominated
  if (p < steps.size() && steps[p].flow == entry.flow &&
      steps[p].slack >= entry.slack)
    return false;  // dominated by the equal-flow step (incumbent wins ties)
  // The entry survives: it dominates every step with flow >= its flow and
  // slack <= its slack — a contiguous range starting at p.
  std::size_t q = p;
  while (q < steps.size() && steps[q].slack <= entry.slack) ++q;
  if (q == p) {
    steps.insert(steps.begin() + static_cast<std::ptrdiff_t>(p), entry);
  } else {
    steps[p] = entry;
    steps.erase(steps.begin() + static_cast<std::ptrdiff_t>(p) + 1,
                steps.begin() + static_cast<std::ptrdiff_t>(q));
  }
  return true;
}

void QosFrontierSweep::add(const QosFrontierEntry& entry) {
  const std::int32_t slot = entry.count - minCount_;
  TREEPLACE_REQUIRE(slot >= 0 && slot < bucketsInUse_,
                    "sweep candidate count outside the begin() bounds");
  ++stats_.entriesMerged;
  if (entry.flow > ceiling_) return;  // dead: nothing above can absorb it
  staircaseInsert(buckets_[static_cast<std::size_t>(slot)],
                  {entry.flow, entry.slack, entry.prev, entry.child});
}

FrontierSpan QosFrontierSweep::emit() {
  ++stats_.convolutions;
  skyline_.clear();
  const std::uint32_t begin = arena_->beginSpan();
  for (std::int32_t c = 0; c < bucketsInUse_; ++c) {
    // A bucket's steps are mutually non-dominated and flow-ascending, so
    // folding each survivor into the skyline as it is emitted cannot shadow
    // a same-count sibling; the skyline check doubles as the cross-bucket
    // dominance test (lower counts entered first and win non-strict ties).
    for (const Step& step : buckets_[static_cast<std::size_t>(c)]) {
      if (staircaseInsert(skyline_, step))
        arena_->push({minCount_ + c, step.flow, step.slack, step.prev, step.child});
    }
  }
  const FrontierSpan out = arena_->endSpan(begin);
  stats_.peakWidth = std::max(stats_.peakWidth, static_cast<std::size_t>(out.size));
  return out;
}

FrontierSpan QosFrontierSweep::convolve(FrontierSpan acc, FrontierSpan child,
                                        std::int32_t maxCount, double uplink,
                                        Requests ceiling) {
  // QoS frontiers are count-ascending, so the pair counts span
  // [front + front, back + back].
  const std::span<const QosFrontierEntry> fa = arena_->view(acc);
  const std::span<const QosFrontierEntry> fc = arena_->view(child);
  if (fa.empty() || fc.empty()) {
    begin(0, -1, ceiling);
    return emit();
  }
  begin(fa.front().count + fc.front().count,
        std::min(maxCount, fa.back().count + fc.back().count), ceiling);
  // add() only touches the buckets, so the views stay valid until emit().
  for (std::size_t p = 0; p < fa.size(); ++p) {
    const QosFrontierEntry& accEntry = fa[p];
    for (std::size_t c = 0; c < fc.size(); ++c) {
      const QosFrontierEntry& childEntry = fc[c];
      const std::int32_t count = accEntry.count + childEntry.count;
      if (count > maxCount) break;  // child counts ascend
      const double childSlack =
          childEntry.flow > 0 ? childEntry.slack - uplink
                              : std::numeric_limits<double>::infinity();
      if (childSlack < -1e-9) continue;  // dead: client unreachable in time
      add({count, accEntry.flow + childEntry.flow,
           std::min(accEntry.slack, childSlack), static_cast<std::int32_t>(p),
           static_cast<std::int32_t>(c)});
    }
  }
  return emit();
}

void QosFrontierSweep::noteArenaUsage() {
  stats_.arenaBytes = std::max(stats_.arenaBytes, arena_->bytes());
}

}  // namespace treeplace
