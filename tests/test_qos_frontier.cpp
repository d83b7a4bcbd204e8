// The QoS 3-D dominance sweep (core/frontier's QosFrontierSweep) against a
// brute-force oracle, and the ported closest_qos solver against a verbatim
// copy of the pre-refactor nested-vector implementation: same feasibility,
// byte-identical replica sets, on 100 random QoS instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/frontier.hpp"
#include "exact/closest_qos.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Point {
  std::int32_t count;
  Requests flow;
  double slack;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Brute-force 3-D prune: keep every candidate no other candidate dominates
/// (count <=, flow <=, slack >=, non-strict as in the pre-refactor prune, so
/// exact duplicates collapse), output sorted by (count, flow).
std::vector<Point> oraclePrune(const std::vector<Point>& candidates) {
  std::vector<Point> kept;
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const Point& e = candidates[i];
    bool dominated = false;
    for (std::size_t j = 0; j < candidates.size() && !dominated; ++j) {
      if (i == j) continue;
      const Point& k = candidates[j];
      if (k == e) {  // duplicates: keep only the first occurrence
        dominated = j < i;
        continue;
      }
      dominated = k.count <= e.count && k.flow <= e.flow && k.slack >= e.slack;
    }
    if (!dominated) kept.push_back(e);
  }
  std::sort(kept.begin(), kept.end(), [](const Point& a, const Point& b) {
    if (a.count != b.count) return a.count < b.count;
    return a.flow < b.flow;
  });
  return kept;
}

TEST(QosFrontierSweep, MatchesBruteForceOracleOnRandomBatches) {
  Prng rng(0x9a5f31ULL);
  for (int trial = 0; trial < 300; ++trial) {
    const int m = 1 + static_cast<int>(rng.uniformInt(0, 24));
    const auto maxCount = static_cast<std::int32_t>(rng.uniformInt(4, 12));
    std::vector<Point> candidates;
    for (int i = 0; i < m; ++i) {
      // Coarse value grids make dominance, duplicate and tie cases frequent.
      const Requests flow = static_cast<Requests>(rng.uniformInt(0, 6)) * 10;
      const double slack = flow == 0
                               ? kInf
                               : static_cast<double>(rng.uniformInt(0, 5)) * 0.5;
      candidates.push_back(
          {static_cast<std::int32_t>(rng.uniformInt(0, static_cast<std::uint64_t>(maxCount))),
           flow, slack});
    }

    QosFrontierArena arena;
    arena.reset(64);
    QosFrontierSweep sweep(arena);
    sweep.begin(0, maxCount, kNoFlowCeiling);
    for (std::size_t i = 0; i < candidates.size(); ++i)
      sweep.add({candidates[i].count, candidates[i].flow, candidates[i].slack,
                 static_cast<std::int32_t>(i), 0});
    const FrontierSpan result = sweep.emit();

    std::vector<Point> got;
    for (const QosFrontierEntry& e : arena.view(result))
      got.push_back({e.count, e.flow, e.slack});
    EXPECT_EQ(got, oraclePrune(candidates)) << "trial " << trial;
  }
}

TEST(QosFrontierSweep, KeepsTheFirstOfExactDuplicates) {
  QosFrontierArena arena;
  arena.reset(8);
  QosFrontierSweep sweep(arena);
  sweep.begin(0, 4, kNoFlowCeiling);
  sweep.add({2, 10, 1.5, 7, 0});   // first occurrence wins ...
  sweep.add({2, 10, 1.5, 99, 1});  // ... the duplicate's backpointers lose
  const FrontierSpan result = sweep.emit();
  ASSERT_EQ(result.size, 1u);
  EXPECT_EQ(arena.at(result, 0).prev, 7);
  EXPECT_EQ(arena.at(result, 0).child, 0);
}

TEST(QosFrontierSweep, BucketsRecycleAcrossBatches) {
  QosFrontierArena arena;
  arena.reset(32);
  QosFrontierSweep sweep(arena);
  sweep.begin(0, 3, kNoFlowCeiling);
  sweep.add({0, 5, 1.0, -1, -1});
  sweep.add({1, 0, kInf, -1, -1});
  (void)sweep.emit();
  // A second batch must not see the first batch's candidates.
  sweep.begin(0, 3, kNoFlowCeiling);
  sweep.add({2, 7, 0.5, -1, -1});
  const FrontierSpan second = sweep.emit();
  ASSERT_EQ(second.size, 1u);
  EXPECT_EQ(arena.at(second, 0).count, 2);
  EXPECT_EQ(arena.at(second, 0).flow, 7);
}

// A batch opened on its live count range [lo, hi] with a flow ceiling must
// emit exactly what a full-range [0, wide] batch without a ceiling emits,
// filtered to flow <= ceiling — slacks and backpointers included.
std::vector<QosFrontierEntry> sweepBatch(QosFrontierArena& arena,
                                         const std::vector<QosFrontierEntry>& batch,
                                         std::int32_t lo, std::int32_t hi,
                                         Requests ceiling) {
  QosFrontierSweep sweep(arena);
  sweep.begin(lo, hi, ceiling);
  for (const QosFrontierEntry& e : batch) sweep.add(e);
  const auto view = arena.view(sweep.emit());
  return {view.begin(), view.end()};
}

void expectSameQosEntries(const std::vector<QosFrontierEntry>& got,
                          const std::vector<QosFrontierEntry>& want,
                          const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t k = 0; k < got.size(); ++k) {
    EXPECT_EQ(got[k].count, want[k].count) << context << " entry " << k;
    EXPECT_EQ(got[k].flow, want[k].flow) << context << " entry " << k;
    EXPECT_EQ(got[k].slack, want[k].slack) << context << " entry " << k;
    EXPECT_EQ(got[k].prev, want[k].prev) << context << " entry " << k;
    EXPECT_EQ(got[k].child, want[k].child) << context << " entry " << k;
  }
}

TEST(QosFrontierSweep, LiveRangeSweepMatchesFullRangeSweep) {
  Prng rng(0x11fe5ULL);
  int filtered = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto lo = static_cast<std::int32_t>(rng.uniformInt(0, 20));
    const auto hi = lo + static_cast<std::int32_t>(rng.uniformInt(0, 8));
    const auto ceiling = static_cast<Requests>(rng.uniformInt(0, 7)) * 10;
    const int m = 1 + static_cast<int>(rng.uniformInt(0, 24));
    std::vector<QosFrontierEntry> batch;
    for (int i = 0; i < m; ++i) {
      const Requests flow = static_cast<Requests>(rng.uniformInt(0, 6)) * 10;
      const double slack = flow == 0
                               ? kInf
                               : static_cast<double>(rng.uniformInt(0, 5)) * 0.5;
      batch.push_back(
          {lo + static_cast<std::int32_t>(rng.uniformInt(0, static_cast<std::uint64_t>(hi - lo))),
           flow, slack, i, i % 3});
    }

    QosFrontierArena arena;
    arena.reset(128);
    std::vector<QosFrontierEntry> want;
    for (const QosFrontierEntry& e :
         sweepBatch(arena, batch, 0, hi + 5, kNoFlowCeiling))
      if (e.flow <= ceiling) want.push_back(e);
    const std::vector<QosFrontierEntry> got = sweepBatch(arena, batch, lo, hi, ceiling);
    if (got.size() < sweepBatch(arena, batch, lo, hi, kNoFlowCeiling).size())
      ++filtered;
    expectSameQosEntries(got, want, "trial " + std::to_string(trial));
  }
  EXPECT_GE(filtered, 50);  // the ceiling actually cut something
}

// QosFrontierSweep::convolve is the chain step both QoS DPs run: it must
// equal the hand-built cross product (uplink charged, negative slack and
// over-ceiling pairs dropped) pushed through a full-range batch.
TEST(QosFrontierSweep, ConvolveMatchesHandBuiltBatch) {
  Prng rng(0xc0471ULL);
  const auto randomFrontier = [&rng](QosFrontierArena& arena) {
    QosFrontierSweep sweep(arena);
    sweep.begin(0, 10, kNoFlowCeiling);
    const int m = 1 + static_cast<int>(rng.uniformInt(0, 6));
    for (int i = 0; i < m; ++i) {
      const Requests flow = static_cast<Requests>(rng.uniformInt(0, 6)) * 10;
      sweep.add({static_cast<std::int32_t>(rng.uniformInt(0, 10)), flow,
                 flow == 0 ? kInf : static_cast<double>(rng.uniformInt(0, 8)) * 0.5,
                 -1, -1});
    }
    return sweep.emit();
  };
  for (int trial = 0; trial < 200; ++trial) {
    QosFrontierArena arena;
    arena.reset(256);
    const FrontierSpan acc = randomFrontier(arena);
    const FrontierSpan child = randomFrontier(arena);
    const auto maxCount = static_cast<std::int32_t>(rng.uniformInt(4, 20));
    const double uplink = static_cast<double>(rng.uniformInt(0, 3)) * 0.5;
    const auto ceiling = static_cast<Requests>(rng.uniformInt(2, 12)) * 10;

    std::vector<QosFrontierEntry> batch;
    for (std::size_t p = 0; p < acc.size; ++p) {
      for (std::size_t c = 0; c < child.size; ++c) {
        const QosFrontierEntry a = arena.at(acc, p);
        const QosFrontierEntry b = arena.at(child, c);
        const double slack = b.flow > 0 ? b.slack - uplink : kInf;
        if (slack < -1e-9 || a.count + b.count > maxCount) continue;
        batch.push_back({a.count + b.count, a.flow + b.flow, std::min(a.slack, slack),
                         static_cast<std::int32_t>(p), static_cast<std::int32_t>(c)});
      }
    }
    std::vector<QosFrontierEntry> want;
    for (const QosFrontierEntry& e : sweepBatch(arena, batch, 0, 40, kNoFlowCeiling))
      if (e.flow <= ceiling) want.push_back(e);

    QosFrontierSweep sweep(arena);
    const auto view = arena.view(sweep.convolve(acc, child, maxCount, uplink, ceiling));
    expectSameQosEntries({view.begin(), view.end()}, want,
                         "trial " + std::to_string(trial));
  }
}

// ---------------------------------------------------------------------------
// Pre-refactor reference solver: the nested-vector + sort + O(k^2) prune
// implementation, kept verbatim except that the sort is stabilised
// (std::stable_sort) so tie-breaking among exactly equal states is
// deterministic — the production sweep keeps the first-generated state, which
// is precisely what a stable sort keeps.
// ---------------------------------------------------------------------------

namespace reference {

struct Entry {
  int count = 0;
  Requests flow = 0;
  double slack = kInf;
  int combIndex = -1;
  bool replicaHere = false;
};

struct CombEntry {
  int count = 0;
  Requests flow = 0;
  double slack = kInf;
  int prevIndex = -1;
  int childIndex = -1;
};

template <typename E>
void prune(std::vector<E>& entries) {
  std::stable_sort(entries.begin(), entries.end(), [](const E& a, const E& b) {
    if (a.count != b.count) return a.count < b.count;
    if (a.flow != b.flow) return a.flow < b.flow;
    return a.slack > b.slack;
  });
  std::vector<E> kept;
  for (const E& e : entries) {
    bool dominated = false;
    for (const E& k : kept) {
      if (k.count <= e.count && k.flow <= e.flow && k.slack >= e.slack) {
        dominated = true;
        break;
      }
    }
    if (!dominated) kept.push_back(e);
  }
  entries = std::move(kept);
}

std::optional<Placement> solve(const ProblemInstance& instance) {
  const Requests W = instance.homogeneousCapacity();
  const Tree& tree = instance.tree;
  const std::size_t n = tree.vertexCount();

  struct NodeState {
    std::vector<std::vector<CombEntry>> combos;
    std::vector<Entry> frontier;
  };
  std::vector<NodeState> states(n);

  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    NodeState& state = states[vi];
    if (tree.isClient(v)) {
      const Requests r = instance.requests[vi];
      state.frontier.push_back({0, r, r > 0 ? instance.qos[vi] : kInf, -1, false});
      continue;
    }

    std::vector<CombEntry> acc{{0, 0, kInf, -1, -1}};
    for (const VertexId child : tree.children(v)) {
      const double uplink = instance.commTime[static_cast<std::size_t>(child)];
      const auto& childFrontier = states[static_cast<std::size_t>(child)].frontier;
      std::vector<CombEntry> next;
      for (std::size_t p = 0; p < acc.size(); ++p) {
        for (std::size_t c = 0; c < childFrontier.size(); ++c) {
          const double childSlack = childFrontier[c].flow > 0
                                        ? childFrontier[c].slack - uplink
                                        : kInf;
          if (childSlack < -1e-9) continue;
          next.push_back({acc[p].count + childFrontier[c].count,
                          acc[p].flow + childFrontier[c].flow,
                          std::min(acc[p].slack, childSlack), static_cast<int>(p),
                          static_cast<int>(c)});
        }
      }
      prune(next);
      if (next.empty()) return std::nullopt;
      state.combos.push_back(next);
      acc = std::move(next);
    }

    std::vector<Entry> options;
    const double comp = instance.compTime[vi];
    for (std::size_t k = 0; k < acc.size(); ++k) {
      options.push_back({acc[k].count, acc[k].flow, acc[k].slack,
                         static_cast<int>(k), false});
      if (acc[k].flow <= W && acc[k].slack >= comp - 1e-9)
        options.push_back({acc[k].count + 1, 0, kInf, static_cast<int>(k), true});
    }
    prune(options);
    state.frontier = std::move(options);
  }

  const auto rootIndex = static_cast<std::size_t>(tree.root());
  const auto& rootFrontier = states[rootIndex].frontier;
  int bestIdx = -1;
  for (std::size_t k = 0; k < rootFrontier.size(); ++k) {
    if (rootFrontier[k].flow == 0 &&
        (bestIdx < 0 ||
         rootFrontier[k].count < rootFrontier[static_cast<std::size_t>(bestIdx)].count))
      bestIdx = static_cast<int>(k);
  }
  if (bestIdx < 0) return std::nullopt;

  Placement placement(n);
  struct Todo {
    VertexId node;
    int entryIndex;
  };
  std::vector<Todo> stack{{tree.root(), bestIdx}};
  while (!stack.empty()) {
    const Todo todo = stack.back();
    stack.pop_back();
    if (tree.isClient(todo.node)) continue;
    const NodeState& state = states[static_cast<std::size_t>(todo.node)];
    const Entry& entry = state.frontier[static_cast<std::size_t>(todo.entryIndex)];
    if (entry.replicaHere) placement.addReplica(todo.node);
    const auto children = tree.children(todo.node);
    int combIdx = entry.combIndex;
    for (std::size_t ci = children.size(); ci-- > 0;) {
      const CombEntry& comb = state.combos[ci][static_cast<std::size_t>(combIdx)];
      stack.push_back({children[ci], comb.childIndex});
      combIdx = comb.prevIndex;
    }
  }

  assignClientsToClosest(instance, placement);
  return placement;
}

}  // namespace reference

TEST(QosSolverEquivalence, ByteIdenticalReplicaSetsOn100RandomInstances) {
  int feasible = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    GeneratorConfig config;
    config.minSize = 8;
    config.maxSize = 36;
    config.clientFraction = 0.55;
    config.maxRequests = 8;
    config.lambda = 0.2 + 0.07 * static_cast<double>(seed % 10);
    config.unitCosts = true;
    config.qosFraction = 0.5;
    config.qosMinHops = 1;
    config.qosMaxHops = 4;
    Prng rng(seed * 613 + 7);
    const ProblemInstance inst = generateInstance(config, rng);

    const auto ported = solveClosestHomogeneousQos(inst);
    const auto ref = reference::solve(inst);
    ASSERT_EQ(ported.has_value(), ref.has_value()) << "seed " << seed;
    if (!ported) continue;
    ++feasible;
    EXPECT_EQ(ported->replicaList(), ref->replicaList()) << "seed " << seed;
    EXPECT_EQ(*ported, *ref) << "seed " << seed;  // full placement equality
    EXPECT_TRUE(testutil::placementValid(inst, *ported, Policy::Closest))
        << "seed " << seed;
  }
  // The suite must exercise real reconstructions, not just agree on "no".
  EXPECT_GE(feasible, 30);
}

// The solver folds the bags in postorder and each bag's children in the
// canonical merge order, both pure functions of the tree shape, so
// rebuilding the same shape from its parent array must reproduce
// byte-identical placements — the frontier-cache counterpart of the
// merge-order determinism test in test_tree.cpp, here exercised through the
// 3-D QoS sweep.
TEST(QosSolverEquivalence, BagScheduleStableAcrossTreeRebuild) {
  int feasible = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    GeneratorConfig config;
    config.minSize = 10;
    config.maxSize = 48;
    config.clientFraction = 0.55;
    config.maxRequests = 6;
    config.lambda = 0.25 + 0.05 * static_cast<double>(seed % 8);
    config.unitCosts = true;
    config.qosFraction = 0.5;
    config.qosMinHops = 1;
    config.qosMaxHops = 4;
    const ProblemInstance inst = generateInstance(config, 31337, seed);

    ProblemInstance rebuilt = inst;
    std::vector<VertexId> parents(inst.tree.vertexCount());
    std::vector<VertexKind> kinds(inst.tree.vertexCount());
    for (std::size_t v = 0; v < inst.tree.vertexCount(); ++v) {
      parents[v] = inst.tree.parent(static_cast<VertexId>(v));
      kinds[v] = inst.tree.kind(static_cast<VertexId>(v));
    }
    rebuilt.tree = Tree::fromParents(parents, kinds);

    const auto a = solveClosestHomogeneousQos(inst);
    const auto b = solveClosestHomogeneousQos(rebuilt);
    ASSERT_EQ(a.has_value(), b.has_value()) << "seed " << seed;
    if (!a) continue;
    ++feasible;
    EXPECT_EQ(a->replicaList(), b->replicaList()) << "seed " << seed;
    EXPECT_EQ(*a, *b) << "seed " << seed;
  }
  EXPECT_GE(feasible, 8);
}

TEST(QosSolverEquivalence, PublishesFrontierTelemetry) {
  const ProblemInstance inst = testutil::smallRandomInstance(
      77, 0.5, /*hetero=*/false, /*unit=*/true, 20, 40);
  FrontierStats stats;
  (void)solveClosestHomogeneousQos(inst, &stats);
  EXPECT_GT(stats.convolutions, 0u);
  EXPECT_GT(stats.arenaBytes, 0u);
  EXPECT_GT(stats.peakWidth, 0u);
}

}  // namespace
}  // namespace treeplace
