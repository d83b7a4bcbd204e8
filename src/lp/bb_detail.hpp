#pragma once

// Node records, the best-bound open pool and the branching rule of the
// branch-and-bound engine (lp/branch_bound.cpp). Everything here is an
// implementation detail: the public surface stays solveMip() in
// lp/branch_bound.hpp.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "lp/model.hpp"
#include "lp/tolerances.hpp"

namespace treeplace::lp::detail {

inline double fractionality(double v) {
  const double f = v - std::floor(v);
  return std::min(f, 1.0 - f);
}

inline double roundBound(double bound, double granularity) {
  if (granularity <= 0.0) return bound;
  // All feasible objectives are multiples of the granularity, so the subtree
  // bound may be rounded up to the next one.
  return std::ceil(bound / granularity - kGranularitySlack) * granularity;
}

/// Branch variable: highest priority class among the fractional integers,
/// most-fractional within the class. -1 when the point is integral.
inline int pickBranchVariable(std::span<const double> values,
                              const std::vector<int>& integers,
                              const std::vector<int>& priority) {
  int branchVar = -1;
  int bestPriority = 0;
  double worst = kIntegralityTol;
  for (const int j : integers) {
    const double f = fractionality(values[static_cast<std::size_t>(j)]);
    if (f <= kIntegralityTol) continue;
    const int p = priority.empty() ? 0 : priority[static_cast<std::size_t>(j)];
    if (branchVar < 0 || p > bestPriority || (p == bestPriority && f > worst)) {
      branchVar = j;
      bestPriority = p;
      worst = f;
    }
  }
  return branchVar;
}

/// One branch-and-bound node: the bound delta it applies on top of its
/// parent (the full box of `branchVar` after the branch) plus the inherited
/// dual bound. Bounds of a node are reconstructed by walking the parent
/// chain — no per-node bound vectors, no model copies.
struct BbNode {
  long parent = -1;
  int branchVar = -1;
  double lower = 0.0;
  double upper = 0.0;
  double bound = -kInfinity;
};

/// Best-bound open pool. With a known objective granularity every node bound
/// is a multiple of it, so nodes bucket exactly by (bound - base) /
/// granularity: pop scans a monotone cursor (child bounds never drop below
/// their parent's), push is O(1), and ties pop LIFO — a dive order that
/// keeps consecutive warm re-solves close in the tree. Without granularity a
/// binary min-heap provides the same best-bound order. Entries carry their
/// bound so a pool can be drained without touching node storage (each
/// worker's shard is one of these).
class NodePool {
 public:
  explicit NodePool(double granularity) : granularity_(granularity) {}

  void push(long id, double bound) {
    if (granularity_ <= 0.0) {
      heap_.push({bound, id});
      return;
    }
    std::size_t bucket = 0;
    if (bound != -kInfinity) {
      if (!baseSet_) {
        base_ = bound;
        baseSet_ = true;
      }
      long index = std::lround((bound - base_) / granularity_);
      if (index < 0) {
        // A single shard is pushed monotonically (children never improve on
        // their parent's bound), so the first-seen base is also the
        // smallest. Several shards are different: a worker that STOLE a
        // low-bound node from another shard pushes that node's children into
        // its own shard, which may sit below everything seen here. Re-base
        // by prepending empty buckets (rare, steal-only) so the order stays
        // exact.
        const std::size_t shift = static_cast<std::size_t>(-index);
        buckets_.insert(buckets_.begin(), shift, {});
        base_ = bound;
        cursor_ += shift;
        index = 0;
      }
      bucket = static_cast<std::size_t>(index);
    }
    if (bucket >= buckets_.size()) buckets_.resize(bucket + 1);
    // Same steal scenario: a push may land below the monotone cursor; roll
    // it back so pop() keeps returning the true shard minimum.
    if (bucket < cursor_) cursor_ = bucket;
    buckets_[bucket].push_back({bound, id});
    ++size_;
  }

  bool empty() const {
    return granularity_ > 0.0 ? size_ == 0 : heap_.empty();
  }

  std::size_t size() const {
    return granularity_ > 0.0 ? size_ : heap_.size();
  }

  /// Pop the best-bound entry (LIFO within a granularity bucket).
  std::pair<double, long> pop() {
    if (granularity_ <= 0.0) {
      const std::pair<double, long> top = heap_.top();
      heap_.pop();
      return top;
    }
    while (buckets_[cursor_].empty()) ++cursor_;
    const std::pair<double, long> entry = buckets_[cursor_].back();
    buckets_[cursor_].pop_back();
    --size_;
    return entry;
  }

  /// Minimum bound among the remaining entries; the pool is consumed.
  double drainMinBound() {
    double best = kInfinity;
    if (granularity_ <= 0.0) {
      while (!heap_.empty()) {
        best = std::min(best, heap_.top().first);
        heap_.pop();
      }
      return best;
    }
    for (std::size_t b = cursor_; b < buckets_.size(); ++b)
      for (const auto& [bound, id] : buckets_[b]) best = std::min(best, bound);
    buckets_.clear();
    size_ = 0;
    return best;
  }

 private:
  double granularity_;
  // Bucketed representation (granularity > 0).
  std::vector<std::vector<std::pair<double, long>>> buckets_;
  std::size_t cursor_ = 0;
  std::size_t size_ = 0;
  double base_ = 0.0;
  bool baseSet_ = false;
  // Heap representation (no granularity). Ties pop the smaller id, so the
  // order is fully deterministic.
  std::priority_queue<std::pair<double, long>,
                      std::vector<std::pair<double, long>>, std::greater<>>
      heap_;
};

inline double millisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                   start)
      .count();
}

}  // namespace treeplace::lp::detail
