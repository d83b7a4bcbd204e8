#include "core/bounds.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/bag_steps.hpp"
#include "support/require.hpp"

namespace treeplace {

Requests countingLowerBound(const ProblemInstance& instance) {
  const Requests W = instance.homogeneousCapacity();
  TREEPLACE_REQUIRE(W > 0, "capacity must be positive");
  const Requests total = instance.totalRequests();
  return (total + W - 1) / W;
}

double fractionalCoverLowerBound(const ProblemInstance& instance) {
  Requests demand = instance.totalRequests();
  if (demand == 0) return 0.0;
  struct Entry {
    double ratio;
    Requests capacity;
    double cost;
  };
  std::vector<Entry> entries;
  entries.reserve(instance.tree.internals().size());
  for (const VertexId j : instance.tree.internals()) {
    const auto i = static_cast<std::size_t>(j);
    if (instance.capacity[i] <= 0) continue;
    entries.push_back({instance.storageCost[i] / static_cast<double>(instance.capacity[i]),
                       instance.capacity[i], instance.storageCost[i]});
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) { return a.ratio < b.ratio; });
  double bound = 0.0;
  for (const Entry& e : entries) {
    if (demand <= 0) break;
    if (e.capacity >= demand) {
      bound += e.ratio * static_cast<double>(demand);
      demand = 0;
    } else {
      bound += e.cost;
      demand -= e.capacity;
    }
  }
  // demand > 0 here means the instance is infeasible for every policy; the
  // partial sum is still a valid lower bound.
  return bound;
}

bool integralStorageCosts(const ProblemInstance& instance) {
  for (const VertexId j : instance.tree.internals()) {
    const double s = instance.storageCost[static_cast<std::size_t>(j)];
    if (s != std::floor(s)) return false;
  }
  return true;
}

FrontierSubtreeRelaxation::FrontierSubtreeRelaxation(const ProblemInstance& instance)
    : instance_(&instance), cache_(instance.tree, false) {
  refresh();
}

FrontierSubtreeRelaxation::FrontierSubtreeRelaxation(const ProblemInstance& instance,
                                                     FrontierArena& arena)
    : instance_(&instance), cache_(instance.tree, false, std::move(arena)) {
  refresh();
  arena = cache_.releaseArena();
}

void FrontierSubtreeRelaxation::refresh() {
  RelaxationStep step(*instance_);
  cache_.refresh(step, nullptr);

  const ProblemInstance& instance = *instance_;
  const Tree& tree = instance.tree;
  const std::size_t n = tree.vertexCount();
  const FrontierArena& arena = cache_.arena();
  minReplicas_.assign(n, 0);
  feasible_ = true;

  // Strict-ancestor capacity (the outflow cap of each subtree), top-down.
  std::vector<Requests> ancestorCapacity(n, 0);
  for (const VertexId v : tree.preorder()) {
    const VertexId p = tree.parent(v);
    if (p == kNoVertex) continue;
    const auto pi = static_cast<std::size_t>(p);
    ancestorCapacity[static_cast<std::size_t>(v)] =
        ancestorCapacity[pi] + instance.capacity[pi];
  }

  // R_v: cheapest count whose residual flow fits under the ancestor cap.
  for (const VertexId v : tree.internals()) {
    const auto vi = static_cast<std::size_t>(v);
    std::int32_t r = -1;
    for (const FrontierEntry& e : arena.view(cache_.frontier(v))) {
      if (e.flow <= ancestorCapacity[vi]) {  // flow decreases: first hit is cheapest
        r = e.count;
        break;
      }
    }
    if (r < 0) {
      // Even every internal node of the subtree cannot push the outflow under
      // the ancestor capacity: no policy has a feasible placement.
      feasible_ = false;
      r = static_cast<std::int32_t>(tree.subtreeSize(v) -
                                    tree.clientsInSubtree(v).size());
    }
    minReplicas_[vi] = r;
  }

  // Additive decomposition: best(v) = max(own subtree floor, sum over
  // children) — the children subtrees are disjoint, so their floors add.
  // Subtree internals occupy a contiguous range of internals() (both are in
  // preorder), so each node's cost multiset is a slice of one flat array:
  // no per-node tree walk.
  const auto& internals = tree.internals();
  const std::size_t internalCount = internals.size();
  std::vector<std::int32_t> intPos(internalCount);
  std::vector<double> intCosts(internalCount);
  std::vector<std::size_t> intIndex(n, 0);
  for (std::size_t k = 0; k < internalCount; ++k) {
    const auto vi = static_cast<std::size_t>(internals[k]);
    intPos[k] = tree.preorderIndex(internals[k]);
    intCosts[k] = instance.storageCost[vi];
    intIndex[vi] = k;
  }
  // Uniform-cost subtrees (the whole homogeneous family) skip the slice sort.
  std::vector<double> minCostBelow(n, 0.0);
  std::vector<double> maxCostBelow(n, 0.0);

  std::vector<double> best(n, 0.0);
  std::vector<double> costScratch;
  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.isClient(v)) continue;
    double childSum = 0.0;
    minCostBelow[vi] = maxCostBelow[vi] = instance.storageCost[vi];
    for (const VertexId c : tree.children(v)) {
      const auto ci = static_cast<std::size_t>(c);
      childSum += best[ci];
      if (tree.isInternal(c)) {
        minCostBelow[vi] = std::min(minCostBelow[vi], minCostBelow[ci]);
        maxCostBelow[vi] = std::max(maxCostBelow[vi], maxCostBelow[ci]);
      }
    }
    double own = 0.0;
    if (minReplicas_[vi] > 0) {
      // Sum of the R_v cheapest internal storage costs inside subtree(v).
      const std::size_t k = intIndex[vi];
      const auto endIdx = static_cast<std::size_t>(
          std::lower_bound(intPos.begin() + static_cast<std::ptrdiff_t>(k),
                           intPos.end(), tree.preorderEnd(v)) -
          intPos.begin());
      const std::size_t r =
          std::min(static_cast<std::size_t>(minReplicas_[vi]), endIdx - k);
      if (minCostBelow[vi] == maxCostBelow[vi]) {
        own = static_cast<double>(r) * minCostBelow[vi];
      } else {
        costScratch.assign(intCosts.begin() + static_cast<std::ptrdiff_t>(k),
                           intCosts.begin() + static_cast<std::ptrdiff_t>(endIdx));
        std::partial_sort(costScratch.begin(),
                          costScratch.begin() + static_cast<std::ptrdiff_t>(r),
                          costScratch.end());
        for (std::size_t i = 0; i < r; ++i) own += costScratch[i];
      }
    }
    best[vi] = std::max(own, childSum);
  }
  decompositionBound_ = best[static_cast<std::size_t>(tree.root())];
}

}  // namespace treeplace
