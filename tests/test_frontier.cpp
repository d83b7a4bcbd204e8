#include "core/frontier.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/bag_steps.hpp"
#include "core/frontier_cache.hpp"
#include "core/validate.hpp"
#include "exact/closest_homogeneous.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"

namespace treeplace {
namespace {

struct Point {
  std::int32_t count;
  Requests flow;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Reference implementation: the pre-refactor materialise + sort + prune.
std::vector<Point> oracleConvolve(const std::vector<Point>& a,
                                  const std::vector<Point>& b,
                                  std::int32_t maxCount) {
  std::vector<Point> all;
  for (const Point& pa : a)
    for (const Point& pb : b)
      if (pa.count + pb.count <= maxCount)
        all.push_back({pa.count + pb.count, pa.flow + pb.flow});
  std::sort(all.begin(), all.end(), [](const Point& x, const Point& y) {
    if (x.count != y.count) return x.count < y.count;
    return x.flow < y.flow;
  });
  std::vector<Point> kept;
  Requests bestFlow = std::numeric_limits<Requests>::max();
  for (const Point& p : all) {
    if (!kept.empty() && kept.back().count == p.count) continue;
    if (p.flow < bestFlow) {
      kept.push_back(p);
      bestFlow = p.flow;
    }
  }
  return kept;
}

/// Random monotone frontier: counts strictly ascending, flows strictly
/// decreasing — the invariant every DP frontier maintains.
std::vector<Point> randomFrontier(Prng& rng, int maxEntries) {
  const int entries = 1 + static_cast<int>(rng.uniformInt(0, maxEntries - 1));
  std::vector<Point> frontier;
  std::int32_t count = static_cast<std::int32_t>(rng.uniformInt(0, 2));
  Requests flow = static_cast<Requests>(rng.uniformInt(50, 400));
  for (int i = 0; i < entries && flow >= 0; ++i) {
    frontier.push_back({count, flow});
    count += static_cast<std::int32_t>(rng.uniformInt(1, 3));
    flow -= static_cast<Requests>(rng.uniformInt(1, 60));
  }
  return frontier;
}

FrontierSpan toArena(FrontierArena& arena, const std::vector<Point>& points) {
  const std::uint32_t begin = arena.beginSpan();
  for (const Point& p : points) arena.push({p.count, p.flow, -1, -1});
  return arena.endSpan(begin);
}

std::vector<Point> fromArena(const FrontierArena& arena, FrontierSpan span) {
  std::vector<Point> out;
  for (const FrontierEntry& e : arena.view(span)) out.push_back({e.count, e.flow});
  return out;
}

// The slab crosses SlabAllocator's 1 MiB line while it grows: the heap slab
// is copied into a mapped one, then into a larger mapping, and a reset
// reserve lands on a mapping straight away. Every span reads back what was
// pushed.
TEST(FrontierArena, SlabKeepsEntriesAcrossTheMappingThreshold) {
  const std::size_t perMiB = SlabAllocator<FrontierEntry>::kMapBytes / sizeof(FrontierEntry);
  FrontierArena arena;
  for (const std::size_t reserve : {std::size_t{16}, 3 * perMiB}) {
    arena.reset(reserve);
    std::vector<FrontierSpan> spans;
    for (std::int32_t k = 0; k < static_cast<std::int32_t>(3 * perMiB); k += 1000) {
      const std::uint32_t begin = arena.beginSpan();
      for (std::int32_t i = k; i < k + 1000; ++i) arena.push({i, 2 * Requests{i}, i, -i});
      spans.push_back(arena.endSpan(begin));
    }
    EXPECT_GE(arena.bytes(), 3 * SlabAllocator<FrontierEntry>::kMapBytes);
    for (std::size_t s = 0; s < spans.size(); ++s)
      for (std::size_t i = 0; i < spans[s].size; ++i) {
        const FrontierEntry& e = arena.at(spans[s], i);
        const auto want = static_cast<std::int32_t>(s * 1000 + i);
        ASSERT_EQ(e.count, want);
        ASSERT_EQ(e.flow, 2 * Requests{want});
        ASSERT_EQ(e.child, -want);
      }
  }
}

TEST(FrontierConvolver, MatchesOracleOnRandomFrontiers) {
  Prng rng(0xf40f7153ULL);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<Point> a = randomFrontier(rng, 8);
    const std::vector<Point> b = randomFrontier(rng, 8);
    const auto maxCount =
        static_cast<std::int32_t>(rng.uniformInt(0, 24));  // sometimes truncating

    FrontierArena arena;
    arena.reset(64);
    FrontierConvolver conv(arena);
    const FrontierSpan result =
        conv.convolve(toArena(arena, a), toArena(arena, b), maxCount);

    EXPECT_EQ(fromArena(arena, result), oracleConvolve(a, b, maxCount))
        << "trial " << trial;
  }
}

TEST(FrontierConvolver, BackpointersRecoverTheMergedPair) {
  Prng rng(0x77aa12ULL);
  for (int trial = 0; trial < 50; ++trial) {
    const std::vector<Point> a = randomFrontier(rng, 6);
    const std::vector<Point> b = randomFrontier(rng, 6);
    FrontierArena arena;
    arena.reset(64);
    FrontierConvolver conv(arena);
    const FrontierSpan sa = toArena(arena, a);
    const FrontierSpan sb = toArena(arena, b);
    const FrontierSpan result = conv.convolve(sa, sb, 1 << 20);
    for (const FrontierEntry& e : arena.view(result)) {
      ASSERT_GE(e.prev, 0);
      ASSERT_GE(e.child, 0);
      const Point pa = a[static_cast<std::size_t>(e.prev)];
      const Point pb = b[static_cast<std::size_t>(e.child)];
      EXPECT_EQ(pa.count + pb.count, e.count);
      EXPECT_EQ(pa.flow + pb.flow, e.flow);
    }
  }
}

TEST(FrontierConvolver, UnitIsNeutral) {
  Prng rng(0x9e1dULL);
  const std::vector<Point> a = randomFrontier(rng, 6);
  FrontierArena arena;
  arena.reset(32);
  FrontierConvolver conv(arena);
  const FrontierSpan sa = toArena(arena, a);
  const FrontierSpan result = conv.convolve(conv.unit(), sa, 1 << 20);
  EXPECT_EQ(fromArena(arena, result), a);
}

TEST(FrontierConvolver, PruneCandidatesMatchesOracle) {
  Prng rng(0xbead5ULL);
  for (int trial = 0; trial < 100; ++trial) {
    // Arbitrary (not monotone) candidate multiset, as produced by a node's
    // place/skip options.
    std::vector<FrontierEntry> candidates;
    const int m = 1 + static_cast<int>(rng.uniformInt(0, 14));
    std::vector<Point> points;
    for (int i = 0; i < m; ++i) {
      const Point p{static_cast<std::int32_t>(rng.uniformInt(0, 9)),
                    static_cast<Requests>(rng.uniformInt(0, 99))};
      points.push_back(p);
      candidates.push_back({p.count, p.flow, i, 0});
    }
    const auto maxCount = static_cast<std::int32_t>(rng.uniformInt(2, 12));

    FrontierArena arena;
    arena.reset(32);
    FrontierConvolver conv(arena);
    const FrontierSpan result = conv.pruneCandidates(candidates, maxCount);

    // Oracle: cross with the neutral {(0,0)} frontier == plain prune.
    const std::vector<Point> expected =
        oracleConvolve(points, {{0, 0}}, maxCount);
    EXPECT_EQ(fromArena(arena, result), expected) << "trial " << trial;
  }
}

// The flow ceiling drops dead states and nothing else: with a ceiling, a
// merge must return exactly the ceiling-free result filtered to flow <=
// ceiling — counts, flows and backpointers. Fed inputs whose dead prefixes
// were already dropped (as the DPs do), the backpointers shift by the
// dropped prefix lengths and nothing more.
bool sameEntry(const FrontierEntry& x, const FrontierEntry& y) {
  return x.count == y.count && x.flow == y.flow && x.prev == y.prev &&
         x.child == y.child;
}

std::vector<FrontierEntry> underCeiling(std::span<const FrontierEntry> entries,
                                        Requests ceiling) {
  std::vector<FrontierEntry> kept;
  for (const FrontierEntry& e : entries)
    if (e.flow <= ceiling) kept.push_back(e);
  return kept;
}

void expectSameEntries(const std::vector<FrontierEntry>& got,
                       const std::vector<FrontierEntry>& want, int trial) {
  ASSERT_EQ(got.size(), want.size()) << "trial " << trial;
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_TRUE(sameEntry(got[k], want[k])) << "trial " << trial << " entry " << k;
}

TEST(FrontierConvolver, CeilingKeepsExactlyTheLiveStates) {
  Prng rng(0xce11ULL);
  int filtered = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::vector<Point> a = randomFrontier(rng, 8);
    const std::vector<Point> b = randomFrontier(rng, 8);
    const auto maxCount = static_cast<std::int32_t>(rng.uniformInt(0, 24));
    const auto ceiling = static_cast<Requests>(rng.uniformInt(0, 700));

    FrontierArena arena;
    arena.reset(256);
    FrontierConvolver conv(arena);
    const FrontierSpan sa = toArena(arena, a);
    const FrontierSpan sb = toArena(arena, b);
    const FrontierSpan full = conv.convolve(sa, sb, maxCount);
    const std::vector<FrontierEntry> want = underCeiling(arena.view(full), ceiling);
    if (want.size() < full.size) ++filtered;

    const FrontierSpan capped = conv.convolve(sa, sb, maxCount, ceiling);
    const auto cappedView = arena.view(capped);
    expectSameEntries({cappedView.begin(), cappedView.end()}, want, trial);

    // Live inputs only: dead states form a prefix (flows strictly decrease).
    const std::vector<FrontierEntry> liveA = underCeiling(arena.view(sa), ceiling);
    const std::vector<FrontierEntry> liveB = underCeiling(arena.view(sb), ceiling);
    const auto shiftA = static_cast<std::int32_t>(a.size() - liveA.size());
    const auto shiftB = static_cast<std::int32_t>(b.size() - liveB.size());
    std::vector<Point> pa;
    std::vector<Point> pb;
    for (const FrontierEntry& e : liveA) pa.push_back({e.count, e.flow});
    for (const FrontierEntry& e : liveB) pb.push_back({e.count, e.flow});
    const FrontierSpan live =
        conv.convolve(toArena(arena, pa), toArena(arena, pb), maxCount, ceiling);
    std::vector<FrontierEntry> remapped;
    for (const FrontierEntry& e : arena.view(live))
      remapped.push_back({e.count, e.flow, e.prev + shiftA, e.child + shiftB});
    expectSameEntries(remapped, want, trial);
  }
  EXPECT_GE(filtered, 50);  // the ceiling actually cut something
}

TEST(FrontierConvolver, PruneCandidatesCeilingKeepsExactlyTheLiveStates) {
  Prng rng(0x9a7eULL);
  int filtered = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<FrontierEntry> candidates;
    const int m = 1 + static_cast<int>(rng.uniformInt(0, 14));
    for (int i = 0; i < m; ++i)
      candidates.push_back({static_cast<std::int32_t>(rng.uniformInt(0, 9)),
                            static_cast<Requests>(rng.uniformInt(0, 99)), i, i % 2});
    const auto maxCount = static_cast<std::int32_t>(rng.uniformInt(2, 12));
    const auto ceiling = static_cast<Requests>(rng.uniformInt(0, 120));

    FrontierArena arena;
    arena.reset(64);
    FrontierConvolver conv(arena);
    const FrontierSpan full = conv.pruneCandidates(candidates, maxCount);
    const std::vector<FrontierEntry> want = underCeiling(arena.view(full), ceiling);
    if (want.size() < full.size) ++filtered;
    const FrontierSpan capped = conv.pruneCandidates(candidates, maxCount, ceiling);
    const auto cappedView = arena.view(capped);
    expectSameEntries({cappedView.begin(), cappedView.end()}, want, trial);
  }
  EXPECT_GE(filtered, 50);
}

TEST(FrontierConvolver, StatsCountWork) {
  FrontierArena arena;
  arena.reset(16);
  FrontierConvolver conv(arena);
  const FrontierSpan a = toArena(arena, {{0, 10}, {1, 5}});
  const FrontierSpan b = toArena(arena, {{0, 7}, {2, 1}});
  (void)conv.convolve(a, b, 8);
  conv.noteArenaUsage();
  const FrontierStats& stats = conv.stats();
  EXPECT_EQ(stats.convolutions, 1u);
  EXPECT_EQ(stats.entriesMerged, 4u);
  EXPECT_GE(stats.peakWidth, 1u);
  EXPECT_GT(stats.arenaBytes, 0u);
}

// ---------------------------------------------------------------------------
// Solver equivalence: the refactored arena/sort-free solvers agree with a
// reference implementation of the pre-refactor algorithm on 100 random
// instances each (feasibility and optimal cost).
// ---------------------------------------------------------------------------

/// Reference Closest DP: the pre-refactor nested-vector + sort implementation
/// (kept verbatim in spirit; no backpointers since only the optimal count is
/// compared).
std::optional<std::size_t> referenceClosestCount(const ProblemInstance& instance) {
  const Requests W = instance.homogeneousCapacity();
  const Tree& tree = instance.tree;
  std::vector<std::vector<Point>> frontier(tree.vertexCount());

  const auto prune = [](std::vector<Point>& entries) {
    std::sort(entries.begin(), entries.end(), [](const Point& a, const Point& b) {
      if (a.count != b.count) return a.count < b.count;
      return a.flow < b.flow;
    });
    std::vector<Point> kept;
    Requests bestFlow = std::numeric_limits<Requests>::max();
    for (const Point& e : entries) {
      if (!kept.empty() && kept.back().count == e.count) continue;
      if (e.flow < bestFlow) {
        kept.push_back(e);
        bestFlow = e.flow;
      }
    }
    entries = std::move(kept);
  };

  for (const VertexId v : tree.postorder()) {
    const auto vi = static_cast<std::size_t>(v);
    if (tree.isClient(v)) {
      frontier[vi] = {{0, instance.requests[vi]}};
      continue;
    }
    std::vector<Point> acc{{0, 0}};
    for (const VertexId child : tree.children(v)) {
      std::vector<Point> next;
      for (const Point& p : acc)
        for (const Point& c : frontier[static_cast<std::size_t>(child)])
          next.push_back({p.count + c.count, p.flow + c.flow});
      prune(next);
      acc = std::move(next);
    }
    std::vector<Point> options;
    for (const Point& p : acc) {
      options.push_back(p);
      if (p.flow <= W) options.push_back({p.count + 1, 0});
    }
    prune(options);
    frontier[vi] = std::move(options);
  }

  std::optional<std::size_t> best;
  for (const Point& p : frontier[static_cast<std::size_t>(tree.root())])
    if (p.flow == 0 && (!best || static_cast<std::size_t>(p.count) < *best))
      best = static_cast<std::size_t>(p.count);
  return best;
}

TEST(FrontierSolverEquivalence, ClosestMatchesReferenceOn100RandomInstances) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const double lambda = 0.2 + 0.07 * static_cast<double>(seed % 10);
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 977 + 11, lambda, /*hetero=*/false, /*unit=*/true,
        /*minSize=*/6, /*maxSize=*/40);
    const auto refactored = solveClosestHomogeneous(inst);
    const auto reference = referenceClosestCount(inst);
    ASSERT_EQ(refactored.has_value(), reference.has_value()) << "seed " << seed;
    if (!refactored) continue;
    EXPECT_EQ(refactored->replicaCount(), *reference) << "seed " << seed;
    EXPECT_DOUBLE_EQ(refactored->storageCost(inst),
                     static_cast<double>(*reference))
        << "seed " << seed;  // unit costs: cost == count
    EXPECT_TRUE(testutil::placementValid(inst, *refactored, Policy::Closest))
        << "seed " << seed;
  }
}

TEST(FrontierSolverEquivalence, MultipleDPMatchesGreedyOn100RandomInstances) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const double lambda = 0.3 + 0.07 * static_cast<double>(seed % 10);
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 1409 + 3, lambda, /*hetero=*/false, /*unit=*/true,
        /*minSize=*/6, /*maxSize=*/40);
    const auto greedy = solveMultipleHomogeneous(inst);
    const auto dp = solveMultipleHomogeneousDP(inst);
    ASSERT_EQ(greedy.has_value(), dp.has_value()) << "seed " << seed;
    if (!greedy) continue;
    EXPECT_EQ(greedy->replicaCount(), dp->replicaCount()) << "seed " << seed;
    EXPECT_TRUE(testutil::placementValid(inst, *dp, Policy::Multiple))
        << "seed " << seed;
  }
}

// Drive the shared Closest bag step through a caller-constructed frontier
// cache, refreshed cold and walked, and return the sorted replica list: the
// cache's postorder refresh, merge order and backpointer walk must
// reconstruct the production solver's placement, entry for entry.
std::optional<std::vector<VertexId>> driveClosestDp(const ProblemInstance& instance) {
  FrontierCache<FrontierEntry> cache(instance.tree, true);
  ClosestStep step(instance, instance.homogeneousCapacity());
  cache.refresh(step, nullptr);
  const std::int32_t rootEntry =
      ClosestStep::rootEntry(cache.arena(), cache.frontier(instance.tree.root()));
  if (rootEntry < 0) return std::nullopt;
  std::vector<VertexId> replicas;
  cache.walk(
      rootEntry, [](VertexId, std::int32_t) { return true; },
      [&replicas](VertexId node, bool placed) {
        if (placed) replicas.push_back(node);
      });
  std::sort(replicas.begin(), replicas.end());
  return replicas;
}

TEST(FrontierSolverEquivalence, BagInterfaceMatchesTreeInterfaceBitExactly) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 733 + 5, 0.2 + 0.07 * static_cast<double>(seed % 10),
        /*hetero=*/false, /*unit=*/true, /*minSize=*/6, /*maxSize=*/40);

    const auto treeReplicas = driveClosestDp(inst);
    if (!treeReplicas) continue;

    // The walk must agree with the production solver's replica set.
    const auto solver = solveClosestHomogeneous(inst);
    ASSERT_TRUE(solver.has_value()) << "seed " << seed;
    EXPECT_EQ(solver->replicaList(), *treeReplicas) << "seed " << seed;
  }
}

/// shape(tree, v) against a brute-force walk of v's subtree. Clients are
/// counted by kind, never by child count: a bare internal (a childless
/// non-client) is an internal of its cone. Returns the bare internals seen.
int expectShapesMatchSubtreeWalk(const Tree& tree, const std::string& ctx) {
  int bare = 0;
  for (std::size_t vi = 0; vi < tree.vertexCount(); ++vi) {
    const auto v = static_cast<VertexId>(vi);
    std::int32_t clients = 0;
    std::int32_t internals = 0;
    std::vector<VertexId> todo{v};
    while (!todo.empty()) {
      const VertexId u = todo.back();
      todo.pop_back();
      ++(tree.isClient(u) ? clients : internals);
      for (const VertexId c : tree.children(u)) todo.push_back(c);
    }
    std::int32_t depth = 0;
    for (VertexId u = tree.parent(v); u != kNoVertex; u = tree.parent(u)) ++depth;
    if (!tree.isClient(v) && tree.children(v).empty()) ++bare;

    const BagShape got = shape(tree, v);
    EXPECT_EQ(got.clients, clients) << ctx << " v=" << v;
    EXPECT_EQ(got.internals, internals) << ctx << " v=" << v;
    EXPECT_EQ(got.depth, depth) << ctx << " v=" << v;
  }
  return bare;
}

TEST(BagShape, ConeCountsMatchSubtreeCounts) {
  for (std::uint64_t index = 0; index < 6; ++index) {
    GeneratorConfig config;
    config.heterogeneous = index % 2 == 1;
    const ProblemInstance instance = generateInstance(config, 7, index);
    expectShapesMatchSubtreeWalk(instance.tree, "tree " + std::to_string(index));
  }
  // Multitree members carry bare internals (gateways a member tree only
  // routes through), where leaf and client part ways.
  int bare = 0;
  for (std::uint64_t index = 0; index < 12; ++index) {
    MultitreeConfig config;
    config.trees = 2 + static_cast<int>(index % 3);
    config.sharedInternals = 3;
    config.base.minSize = 8;
    config.base.maxSize = 20;
    const MultitreeInstance mt = generateMultitreeInstance(config, 77, index);
    for (std::size_t t = 0; t < mt.trees.size(); ++t)
      bare += expectShapesMatchSubtreeWalk(
          mt.trees[t].tree, "multitree " + std::to_string(index) + " member " + std::to_string(t));
  }
  EXPECT_GT(bare, 0);
}

/// Subset-enumeration oracle of ConstrainedClosestStep: the cheapest
/// cost-weighted replica set that honours every vertex state and serves each
/// client wholly from its nearest replica above it within W, or -1.
std::int32_t constrainedClosestByEnumeration(const ProblemInstance& instance,
                                             const std::vector<NodeState>& state) {
  const Tree& tree = instance.tree;
  const Requests W = instance.homogeneousCapacity();
  const auto& internals = tree.internals();
  std::int32_t best = -1;
  std::vector<char> inSet(tree.vertexCount(), 0);
  std::vector<Requests> load(tree.vertexCount(), 0);
  for (std::uint32_t mask = 0; mask < (1u << internals.size()); ++mask) {
    std::int32_t cost = 0;
    bool honours = true;
    for (std::size_t i = 0; i < internals.size(); ++i) {
      const bool in = ((mask >> i) & 1) != 0;
      const NodeState s = state[static_cast<std::size_t>(internals[i])];
      inSet[static_cast<std::size_t>(internals[i])] = in ? 1 : 0;
      if (in && s == NodeState::Forbidden) honours = false;
      if (!in && (s == NodeState::Forced || s == NodeState::ForcedZero)) honours = false;
      if (in && (s == NodeState::Free || s == NodeState::Forced)) ++cost;
    }
    if (!honours || (best >= 0 && cost >= best)) continue;
    std::fill(load.begin(), load.end(), 0);
    bool feasible = true;
    for (const VertexId c : tree.clients()) {
      const Requests r = instance.requests[static_cast<std::size_t>(c)];
      if (r == 0) continue;
      VertexId server = tree.parent(c);
      while (server != kNoVertex && inSet[static_cast<std::size_t>(server)] == 0)
        server = tree.parent(server);
      if (server == kNoVertex || (load[static_cast<std::size_t>(server)] += r) > W) {
        feasible = false;
        break;
      }
    }
    if (feasible) best = cost;
  }
  return best;
}

// The multitree solver's five node states, driven through a cold frontier
// cache on random trees with random per-vertex states: the root's
// cost-weighted count must equal the best honouring subset.
TEST(FrontierSolverEquivalence, ConstrainedClosestStepMatchesEnumeration) {
  constexpr NodeState kStates[] = {NodeState::Free, NodeState::FreeZero, NodeState::Forced,
                                   NodeState::ForcedZero, NodeState::Forbidden};
  Prng rng(2024);
  int feasible = 0;
  int infeasible = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    // Client-poor trees with Forced-heavy states put more cost-1 replicas in
    // a cone than it has clients — the case ClosestStep's count cap excludes.
    GeneratorConfig config;
    config.minSize = 6;
    config.maxSize = 14;
    config.clientFraction = seed % 2 == 0 ? 0.3 : 0.55;
    config.maxRequests = 8;
    config.lambda = 0.2 + 0.1 * static_cast<double>(seed % 6);
    config.unitCosts = true;
    Prng gen(seed * 31 + 7);
    const ProblemInstance inst = generateInstance(config, gen);
    ConstrainedClosestStep step(inst, inst.homogeneousCapacity());
    for (const VertexId v : inst.tree.internals())
      step.state[static_cast<std::size_t>(v)] =
          seed % 3 == 0 && rng.uniformInt(0, 1) == 0 ? NodeState::Forced
                                                     : kStates[rng.uniformInt(0, 4)];

    FrontierCache<FrontierEntry> cache(inst.tree, true);
    cache.refresh(step, nullptr);
    const FrontierSpan root = cache.frontier(inst.tree.root());
    const std::int32_t entry = FlowStep::rootEntry(cache.arena(), root);
    const std::int32_t got =
        entry < 0 ? -1 : cache.arena().at(root, static_cast<std::size_t>(entry)).count;
    EXPECT_EQ(got, constrainedClosestByEnumeration(inst, step.state)) << "seed " << seed;
    ++(got < 0 ? infeasible : feasible);
  }
  // Both verdicts must be exercised, or one side of the comparison is idle.
  EXPECT_GE(feasible, 30);
  EXPECT_GE(infeasible, 10);
}

TEST(FrontierSolverEquivalence, ClosestStatsRespectWidthBound) {
  const ProblemInstance inst = testutil::smallRandomInstance(
      42, 0.5, /*hetero=*/false, /*unit=*/true, /*minSize=*/30, /*maxSize=*/60);
  FrontierStats stats;
  (void)solveClosestHomogeneous(inst, &stats);
  const std::size_t clients = inst.tree.clients().size();
  const std::size_t internals = inst.tree.internals().size();
  EXPECT_LE(stats.peakWidth, std::min(clients, internals) + 1);
  // One convolution per (internal parent, child) edge: n - 1 in total.
  EXPECT_EQ(stats.convolutions, inst.tree.vertexCount() - 1);
  EXPECT_GT(stats.arenaBytes, 0u);
}

// The same bounds on an instance the solver actually places (the seed-42,
// lambda-0.5 instance above is infeasible): the widest frontier here is 5.
TEST(FrontierSolverEquivalence, ClosestStatsRespectWidthBoundWhenSolved) {
  const ProblemInstance inst = testutil::smallRandomInstance(
      40, 0.1, /*hetero=*/false, /*unit=*/true, /*minSize=*/30, /*maxSize=*/60);
  FrontierStats stats;
  const std::optional<Placement> placement = solveClosestHomogeneous(inst, &stats);
  ASSERT_TRUE(placement.has_value());
  EXPECT_TRUE(testutil::placementValid(inst, *placement, Policy::Closest));
  const std::size_t clients = inst.tree.clients().size();
  const std::size_t internals = inst.tree.internals().size();
  EXPECT_LE(stats.peakWidth, std::min(clients, internals) + 1);
  EXPECT_GT(stats.peakWidth, 2u);
  EXPECT_EQ(stats.convolutions, inst.tree.vertexCount() - 1);
}

}  // namespace
}  // namespace treeplace
