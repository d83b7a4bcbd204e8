#include "core/frontier_stream.hpp"

#include <algorithm>
#include <limits>

#include "support/require.hpp"

namespace treeplace {
namespace {

constexpr Requests kNoFlow = std::numeric_limits<Requests>::max();
constexpr double kInfiniteSlack = std::numeric_limits<double>::infinity();

}  // namespace

// --------------------------------------------------------------------------
// FrontierStreamer
// --------------------------------------------------------------------------

void FrontierStreamer::foldChild(std::size_t accBegin, std::size_t childBegin,
                                 std::int32_t maxCount, Requests ceiling) {
  TREEPLACE_REQUIRE(accBegin < childBegin && childBegin < top(),
                    "foldChild needs two non-empty frontiers on top of the slab");
  ++stats_.convolutions;

  const std::int32_t* aCount = counts_.data() + accBegin;
  const Requests* aFlow = flows_.data() + accBegin;
  const std::size_t aSize = childBegin - accBegin;
  const std::int32_t* bCount = counts_.data() + childBegin;
  const Requests* bFlow = flows_.data() + childBegin;
  const std::size_t bSize = top() - childBegin;

  // Flows strictly decrease, so each input's dead states form a prefix; the
  // live pairs' counts span one interval from the first live pair on.
  std::size_t aStart = 0;
  while (aStart < aSize && aFlow[aStart] > ceiling) ++aStart;
  std::size_t bStart = 0;
  while (bStart < bSize && bFlow[bStart] > ceiling) ++bStart;
  const std::int32_t maxSum =
      std::min(maxCount, aCount[aSize - 1] + bCount[bSize - 1]);
  if (aStart == aSize || bStart == bSize ||
      aCount[aStart] + bCount[bStart] > maxSum) {
    // No live pair: the fold is empty and the caller's DP infeasible.
    resize(accBegin);
    return;
  }
  const std::int32_t minSum = aCount[aStart] + bCount[bStart];
  const std::size_t range = static_cast<std::size_t>(maxSum - minSum) + 1;
  bucketFlow_.assign(range, kNoFlow);

  // Scatter each live pair into its count bucket, keeping the min flow. The
  // child usually has contiguous counts (leaf seeds and fresh sweeps often
  // do), in which case the bucket index walks stride-1 with j and the loop
  // auto-vectorizes; the guard costs O(bSize) once. jLo, the first j whose
  // pair with the current i stays under the ceiling, only moves down as i
  // advances (a's flow shrinks), so dead pairs cost O(aSize + bSize) total.
  bool bContiguous = true;
  for (std::size_t j = bStart + 1; j < bSize; ++j) {
    if (bCount[j] != bCount[bStart] + static_cast<std::int32_t>(j - bStart)) {
      bContiguous = false;
      break;
    }
  }
  Requests* bucket = bucketFlow_.data();
  std::size_t jLo = bSize;
  for (std::size_t i = aStart; i < aSize; ++i) {
    if (aCount[i] + bCount[bStart] > maxSum) break;  // counts ascend: later i only grow
    const Requests fa = aFlow[i];
    while (jLo > bStart && fa + bFlow[jLo - 1] <= ceiling) --jLo;
    if (jLo == bSize) continue;
    const std::int32_t base = aCount[i] + bCount[jLo];
    if (base > maxSum) continue;
    if (bContiguous) {
      const std::size_t lanes =
          std::min(bSize - jLo, static_cast<std::size_t>(maxSum - base) + 1);
      Requests* slot = bucket + static_cast<std::size_t>(base - minSum);
      const Requests* flow = bFlow + jLo;
      for (std::size_t j = 0; j < lanes; ++j)
        slot[j] = std::min(slot[j], fa + flow[j]);
      stats_.pairsMerged += lanes;
    } else {
      for (std::size_t j = jLo; j < bSize; ++j) {
        const std::int32_t s = aCount[i] + bCount[j];
        if (s > maxSum) break;
        Requests& slot = bucket[static_cast<std::size_t>(s - minSum)];
        slot = std::min(slot, fa + bFlow[j]);
        ++stats_.pairsMerged;
      }
    }
  }

  sweepAndCommit(accBegin, minSum, range);
}

void FrontierStreamer::commitPruned(std::size_t begin, std::int32_t maxCount,
                                    Requests ceiling) {
  ++stats_.convolutions;
  stats_.pairsMerged += candCounts_.size();
  std::int32_t minSum = maxCount;
  std::int32_t maxSum = -1;
  for (std::size_t k = 0; k < candCounts_.size(); ++k) {
    const std::int32_t c = candCounts_[k];
    if (c > maxCount || candFlows_[k] > ceiling) continue;
    minSum = std::min(minSum, c);
    maxSum = std::max(maxSum, c);
  }
  if (maxSum < 0) {
    resize(begin);
    return;
  }
  const std::size_t range = static_cast<std::size_t>(maxSum - minSum) + 1;
  bucketFlow_.assign(range, kNoFlow);
  for (std::size_t k = 0; k < candCounts_.size(); ++k) {
    const std::int32_t c = candCounts_[k];
    if (c > maxCount || candFlows_[k] > ceiling) continue;
    Requests& slot = bucketFlow_[static_cast<std::size_t>(c - minSum)];
    slot = std::min(slot, candFlows_[k]);
  }
  sweepAndCommit(begin, minSum, range);
}

void FrontierStreamer::sweepAndCommit(std::size_t accBegin, std::int32_t minSum,
                                      std::size_t range) {
  // Ascending sweep: keep only strict flow improvements (Pareto frontier).
  outCounts_.clear();
  outFlows_.clear();
  Requests best = kNoFlow;
  const Requests* bucket = bucketFlow_.data();
  for (std::size_t k = 0; k < range; ++k) {
    const Requests f = bucket[k];
    if (f >= best) continue;
    best = f;
    outCounts_.push_back(minSum + static_cast<std::int32_t>(k));
    outFlows_.push_back(f);
  }
  stats_.peakWidth = std::max(stats_.peakWidth, outCounts_.size());

  // Width cap: strided downsample that always keeps the first (min count) and
  // last (min flow) points. Survivors are real reachable states, so capped
  // frontiers stay achievable — answers become upper bounds, not guesses.
  resize(accBegin);
  const std::size_t width = outCounts_.size();
  const std::size_t cap = static_cast<std::size_t>(options_.widthCap);
  if (width <= cap || cap < 2) {
    for (std::size_t k = 0; k < width; ++k) pushEntry(outCounts_[k], outFlows_[k]);
    return;
  }
  ++stats_.cappedMerges;
  stats_.exact = false;
  // Dropping an interior point can cost later steps at most the count gap to
  // the next kept point (whose flow is no worse, flows being strictly
  // decreasing); the merge's worst case is the max such gap, and the gaps of
  // successive capped merges add. See FrontierStreamStats::capGapBound.
  std::size_t kept = 0;
  std::int32_t maxGap = 0;
  std::size_t last = width;  // sentinel: nothing pushed yet
  for (std::size_t k = 0; k < cap; ++k) {
    const std::size_t idx = k * (width - 1) / (cap - 1);
    if (idx == last) continue;
    if (last != width && idx > last + 1)
      maxGap = std::max(maxGap, outCounts_[idx] - outCounts_[last] - 1);
    last = idx;
    ++kept;
    pushEntry(outCounts_[idx], outFlows_[idx]);
  }
  stats_.droppedPoints += width - kept;
  stats_.capGapBound += maxGap;
}

// --------------------------------------------------------------------------
// QosFrontierStreamer
// --------------------------------------------------------------------------

void QosFrontierStreamer::reset() {
  counts_.clear();
  flows_.clear();
  slacks_.clear();
  stats_ = {};
}

void QosFrontierStreamer::noteStack() {
  // O(1) per push: bucket headers are counted, their per-bucket heap capacity
  // is not (bounded by the widest fold, negligible next to the slab).
  stats_.peakStackEntries = std::max(stats_.peakStackEntries, counts_.size());
  const std::size_t bytes = counts_.capacity() * sizeof(std::int32_t) +
                            flows_.capacity() * sizeof(Requests) +
                            slacks_.capacity() * sizeof(double) +
                            buckets_.capacity() * sizeof(std::vector<Step>);
  stats_.peakBytes = std::max(stats_.peakBytes, bytes);
  if (options_.guard != nullptr) options_.guard->noteMemory(bytes);
}

std::size_t QosFrontierStreamer::pushUnit() {
  const std::size_t begin = top();
  pushEntry(0, 0, kInfiniteSlack);
  return begin;
}

void QosFrontierStreamer::beginBuckets(std::int32_t minCount, std::int32_t maxCount,
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

bool QosFrontierStreamer::staircaseInsert(std::vector<Step>& steps,
                                          const Step& entry) {
  // Mirrors QosFrontierSweep::staircaseInsert: steps keep flow strictly
  // ascending AND slack strictly ascending; incumbents win exact ties.
  std::size_t p = 0;
  while (p < steps.size() && steps[p].flow < entry.flow) ++p;
  if (p > 0 && steps[p - 1].slack >= entry.slack) return false;
  if (p < steps.size() && steps[p].flow == entry.flow &&
      steps[p].slack >= entry.slack)
    return false;
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

void QosFrontierStreamer::bucketAdd(std::int32_t count, Requests flow,
                                    double slack) {
  ++stats_.pairsMerged;
  if (flow > ceiling_) return;  // dead: nothing above can absorb it
  staircaseInsert(buckets_[static_cast<std::size_t>(count - minCount_)], {flow, slack});
}

void QosFrontierStreamer::foldChild(std::size_t accBegin, std::size_t childBegin,
                                    std::int32_t maxCount, double uplink,
                                    Requests ceiling) {
  TREEPLACE_REQUIRE(accBegin < childBegin && childBegin < top(),
                    "foldChild needs two non-empty frontiers on top of the slab");
  ++stats_.convolutions;
  // Both frontiers are count-ascending: the pair counts span
  // [front + front, back + back].
  beginBuckets(counts_[accBegin] + counts_[childBegin],
               std::min(maxCount, counts_[childBegin - 1] + counts_[top() - 1]),
               ceiling);

  const std::size_t aSize = childBegin - accBegin;
  const std::size_t bSize = top() - childBegin;
  for (std::size_t j = 0; j < bSize; ++j) {
    const std::size_t bj = childBegin + j;
    const Requests fb = flows_[bj];
    // The child pays its uplink before joining the parent; zero-flow states
    // carry no deadline at all.
    const double sb = fb > 0 ? slacks_[bj] - uplink : kInfiniteSlack;
    if (sb < -1e-9) continue;  // dead: some client unreachable in time
    const std::int32_t cb = counts_[bj];
    for (std::size_t i = 0; i < aSize; ++i) {
      const std::size_t ai = accBegin + i;
      const std::int32_t c = counts_[ai] + cb;
      if (c > maxCount) break;  // accumulator counts ascend
      bucketAdd(c, flows_[ai] + fb, std::min(slacks_[ai], sb));
    }
  }
  sweepAndCommit(accBegin);
}

void QosFrontierStreamer::clearCandidates() {
  candCounts_.clear();
  candFlows_.clear();
  candSlacks_.clear();
}

void QosFrontierStreamer::addCandidate(std::int32_t count, Requests flow,
                                       double slack) {
  candCounts_.push_back(count);
  candFlows_.push_back(flow);
  candSlacks_.push_back(slack);
}

void QosFrontierStreamer::commitPruned(std::size_t begin, std::int32_t maxCount,
                                       Requests ceiling) {
  ++stats_.convolutions;
  std::int32_t minCount = maxCount;
  std::int32_t reach = -1;
  for (const std::int32_t c : candCounts_) {
    if (c > maxCount) continue;
    minCount = std::min(minCount, c);
    reach = std::max(reach, c);
  }
  beginBuckets(minCount, reach, ceiling);
  for (std::size_t k = 0; k < candCounts_.size(); ++k) {
    if (candCounts_[k] > maxCount) continue;
    bucketAdd(candCounts_[k], candFlows_[k], candSlacks_[k]);
  }
  sweepAndCommit(begin);
}

void QosFrontierStreamer::sweepAndCommit(std::size_t accBegin) {
  skyline_.clear();
  outCounts_.clear();
  outFlows_.clear();
  outSlacks_.clear();
  for (std::int32_t c = 0; c < bucketsInUse_; ++c) {
    // Bucket steps are mutually non-dominated and flow-ascending; the running
    // skyline of lower counts doubles as the cross-bucket dominance test
    // (lower counts entered first and win non-strict ties), exactly like
    // QosFrontierSweep::emit.
    for (const Step& step : buckets_[static_cast<std::size_t>(c)]) {
      if (staircaseInsert(skyline_, step)) {
        outCounts_.push_back(minCount_ + c);
        outFlows_.push_back(step.flow);
        outSlacks_.push_back(step.slack);
      }
    }
  }
  stats_.peakWidth = std::max(stats_.peakWidth, outCounts_.size());

  resize(accBegin);
  const std::size_t width = outCounts_.size();
  const std::size_t cap = static_cast<std::size_t>(options_.widthCap);
  if (width <= cap || cap < 2) {
    for (std::size_t k = 0; k < width; ++k)
      pushEntry(outCounts_[k], outFlows_[k], outSlacks_[k]);
    noteStack();
    return;
  }
  ++stats_.cappedMerges;
  stats_.exact = false;
  // Same count-gap telemetry as the 2-D streamer; with the slack dimension
  // the next kept point may carry worse slack than a dropped one, so here the
  // accumulated gap is diagnostic only, not a certified bracket.
  std::size_t kept = 0;
  std::int32_t maxGap = 0;
  std::size_t last = width;  // sentinel: nothing pushed yet
  for (std::size_t k = 0; k < cap; ++k) {
    const std::size_t idx = k * (width - 1) / (cap - 1);
    if (idx == last) continue;
    if (last != width && idx > last + 1)
      maxGap = std::max(maxGap, outCounts_[idx] - outCounts_[last] - 1);
    last = idx;
    ++kept;
    pushEntry(outCounts_[idx], outFlows_[idx], outSlacks_[idx]);
  }
  stats_.droppedPoints += width - kept;
  stats_.capGapBound += maxGap;
  noteStack();
}

}  // namespace treeplace
