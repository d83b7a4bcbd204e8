#include "core/frontier_stream.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <limits>
#include <new>
#include <numeric>
#include <string>

#include "exact/closest_homogeneous.hpp"
#include "exact/closest_qos.hpp"
#include "exact/multiple_homogeneous.hpp"
#include "support/fault_injection.hpp"
#include "support/require.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"

namespace treeplace {
namespace {

ProblemInstance randomHomogeneous(std::uint64_t seed, double lambda,
                                  double qosFraction = 0.0) {
  GeneratorConfig config;
  config.minSize = 10;
  config.maxSize = 60;
  config.clientFraction = 0.55;
  config.maxRequests = 8;
  config.lambda = lambda;
  config.unitCosts = true;
  config.qosFraction = qosFraction;
  // Loose deadlines: tight hop bounds make nearly every draw infeasible and
  // would starve the feasible branch of the QoS sweep below.
  config.qosMinHops = 3;
  config.qosMaxHops = 8;
  Prng rng(seed);
  return generateInstance(config, rng);
}

// The feasible-at-scale profile of the benchmarks: leaf clients of unit
// rate, hop-count QoS on 30% of them.
GeneratorConfig atScaleProfile(int size, double lambda) {
  GeneratorConfig config;
  config.minSize = config.maxSize = size;
  config.clientFraction = 0.8;
  config.leafClientBias = 1.0;
  config.minRequests = config.maxRequests = 1;
  config.lambda = lambda;
  config.unitCosts = true;
  config.qosFraction = 0.3;
  config.qosMinHops = 6;
  config.qosMaxHops = 12;
  return config;
}

// With a generous width cap no merge is ever downsampled, so the streaming
// DP must reproduce the exact solver bit for bit: same feasibility verdict,
// same optimal count, exact flag set.
TEST(FrontierStream, ClosestMatchesExactSolver) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const ProblemInstance inst = randomHomogeneous(seed * 131, 0.4 + 0.01 * static_cast<double>(seed % 40));
    const auto exact = solveClosestHomogeneous(inst);
    const StreamCountResult stream = countClosestHomogeneousStreaming(inst);
    ASSERT_TRUE(stream.stats.exact) << seed;
    ASSERT_EQ(exact.has_value(), stream.feasible) << seed;
    if (exact) {
      EXPECT_EQ(exact->replicaCount(),
                static_cast<std::size_t>(stream.replicas))
          << seed;
    }
  }
}

TEST(FrontierStream, MultipleMatchesExactSolver) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const ProblemInstance inst = randomHomogeneous(seed * 257, 0.5 + 0.01 * static_cast<double>(seed % 45));
    const auto exact = solveMultipleHomogeneousDP(inst);
    const StreamCountResult stream = countMultipleHomogeneousStreaming(inst);
    ASSERT_TRUE(stream.stats.exact) << seed;
    ASSERT_EQ(exact.has_value(), stream.feasible) << seed;
    if (exact) {
      EXPECT_EQ(exact->replicaCount(),
                static_cast<std::size_t>(stream.replicas))
          << seed;
    }
  }
}

TEST(FrontierStream, QosMatchesExactSolver) {
  int feasible = 0;
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    const ProblemInstance inst =
        randomHomogeneous(seed * 389, 0.3 + 0.01 * static_cast<double>(seed % 35),
                          /*qosFraction=*/0.4);
    const auto exact = solveClosestHomogeneousQos(inst);
    const StreamCountResult stream = countClosestQosStreaming(inst);
    ASSERT_TRUE(stream.stats.exact) << seed;
    ASSERT_EQ(exact.has_value(), stream.feasible) << seed;
    if (exact) {
      ++feasible;
      EXPECT_EQ(exact->replicaCount(),
                static_cast<std::size_t>(stream.replicas))
          << seed;
    }
  }
  EXPECT_GE(feasible, 20);  // the sweep exercises the feasible path too
}

// A brutal width cap loses optimality but never soundness: capped frontiers
// only keep reachable states (so a feasible answer is a real placement's
// count, an upper bound on the optimum) and always retain the minimum-flow
// point (so feasible instances are still reported feasible).
TEST(FrontierStream, TinyWidthCapStaysAchievable) {
  FrontierStreamOptions tiny;
  tiny.widthCap = 2;
  int capped = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const ProblemInstance inst = randomHomogeneous(seed * 643, 0.55);
    const auto exact = solveClosestHomogeneous(inst);
    const StreamCountResult stream = countClosestHomogeneousStreaming(inst, tiny);
    if (!stream.stats.exact) ++capped;
    if (exact) {
      ASSERT_TRUE(stream.feasible) << seed;
      EXPECT_GE(static_cast<std::size_t>(stream.replicas),
                exact->replicaCount())
          << seed;
    }
  }
  EXPECT_GT(capped, 0);  // the cap must actually have fired somewhere
}

TEST(FrontierStream, MultipleTinyWidthCapStaysAchievable) {
  FrontierStreamOptions tiny;
  tiny.widthCap = 2;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const ProblemInstance inst = randomHomogeneous(seed * 769, 0.6);
    const auto exact = solveMultipleHomogeneousDP(inst);
    const StreamCountResult stream = countMultipleHomogeneousStreaming(inst, tiny);
    if (exact) {
      ASSERT_TRUE(stream.feasible) << seed;
      EXPECT_GE(static_cast<std::size_t>(stream.replicas),
                exact->replicaCount())
          << seed;
    }
  }
}

// Cap telemetry soundness: a run is non-exact iff some merge was capped,
// capped merges drop points and accumulate a positive gap bound, and on the
// 2-D policies that bound certifies a bracket around the true optimum:
// replicasFloor() <= exact optimum <= replicas. Uncapped runs must report a
// zero gap and a floor equal to the answer itself.
TEST(FrontierStream, CapGapBoundBracketsOptimum) {
  FrontierStreamOptions tiny;
  tiny.widthCap = 3;
  int cappedFeasible = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const ProblemInstance inst = randomHomogeneous(seed * 1181, 0.55);
    for (int policy = 0; policy < 2; ++policy) {
      const auto exact = policy == 0 ? solveClosestHomogeneous(inst)
                                     : solveMultipleHomogeneousDP(inst);
      const StreamCountResult stream =
          policy == 0 ? countClosestHomogeneousStreaming(inst, tiny)
                      : countMultipleHomogeneousStreaming(inst, tiny);
      ASSERT_EQ(stream.stats.exact, stream.stats.cappedMerges == 0) << seed;
      if (stream.stats.exact) {
        EXPECT_EQ(stream.stats.droppedPoints, 0u) << seed;
        EXPECT_EQ(stream.stats.capGapBound, 0) << seed;
        EXPECT_EQ(stream.replicasFloor(), stream.replicas) << seed;
      } else {
        EXPECT_GT(stream.stats.droppedPoints, 0u) << seed;
        EXPECT_GE(stream.stats.capGapBound, 1) << seed;
        EXPECT_LE(stream.replicasFloor(), stream.replicas) << seed;
      }
      if (exact && stream.feasible) {
        const auto opt = static_cast<std::int32_t>(exact->replicaCount());
        EXPECT_GE(opt, stream.replicasFloor()) << seed << " policy " << policy;
        EXPECT_LE(opt, stream.replicas) << seed << " policy " << policy;
        if (!stream.stats.exact) ++cappedFeasible;
      }
    }
  }
  EXPECT_GE(cappedFeasible, 10);  // the bracket claim was actually exercised
}

// The streamer's memory bound is the whole point: peak slab entries stay
// within widthCap * (tree depth + 1) even when the exact arena would be far
// wider.
TEST(FrontierStream, PeakMemoryTracksDepthTimesCap) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const ProblemInstance inst = randomHomogeneous(seed * 911, 0.5);
    const Tree& tree = inst.tree;
    int maxDepth = 0;
    for (const VertexId v : tree.preorder()) maxDepth = std::max(maxDepth, tree.depth(v));
    FrontierStreamOptions options;
    options.widthCap = 8;
    const StreamCountResult stream = countClosestHomogeneousStreaming(inst, options);
    // Each root-path accumulator holds at most widthCap + 1 entries (the cap
    // plus one place point), and one child frontier rides on top during a
    // fold — hence the +2 fudge on both factors.
    EXPECT_LE(stream.stats.peakStackEntries,
              static_cast<std::size_t>(options.widthCap + 2) *
                  (static_cast<std::size_t>(maxDepth) + 2))
        << seed;
  }
}

// A client sending more than its ancestors can absorb leaves a fold with no
// live state. The 2-D streamers must report that as infeasible — the same
// verdict as the arena DPs — by stopping the walk, as the QoS streamer does,
// instead of folding the next sibling into an empty accumulator.
TEST(FrontierStream, OverloadedClientIsInfeasibleWithoutTrip) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    ProblemInstance inst = randomHomogeneous(seed * 2053, 0.4);
    const Requests W = inst.homogeneousCapacity();
    const auto& clients = inst.tree.clients();
    const VertexId client = clients[seed % clients.size()];
    const auto ci = static_cast<std::size_t>(client);

    // Closest: one replica serves the whole client, so r = W + 1 is dead.
    inst.requests[ci] = W + 1;
    StreamCountResult closest;
    ASSERT_NO_THROW(closest = countClosestHomogeneousStreaming(inst)) << seed;
    EXPECT_FALSE(closest.feasible) << seed;
    EXPECT_FALSE(solveClosestHomogeneous(inst).has_value()) << seed;

    // Multiple: the client's depth(client) ancestors absorb W each at most.
    inst.requests[ci] = W * inst.tree.depth(client) + 1;
    StreamCountResult multiple;
    ASSERT_NO_THROW(multiple = countMultipleHomogeneousStreaming(inst)) << seed;
    EXPECT_FALSE(multiple.feasible) << seed;
    EXPECT_FALSE(solveMultipleHomogeneousDP(inst).has_value()) << seed;
  }
}

// At scale, on the feasible-at-scale profile the benchmarks use, the live
// frontiers stay far below the default width cap: every streaming DP must
// run uncapped (stats.exact) and count exactly the arena DP's optimum.
TEST(FrontierStream, DefaultCapIsExactAtScale) {
  const ProblemInstance inst = generateInstance(atScaleProfile(20000, 0.2), 7, 0);

  const StreamCountResult closest = countClosestHomogeneousStreaming(inst);
  const StreamCountResult multiple = countMultipleHomogeneousStreaming(inst);
  const StreamCountResult qos = countClosestQosStreaming(inst);
  EXPECT_TRUE(closest.stats.exact);
  EXPECT_TRUE(multiple.stats.exact);
  EXPECT_TRUE(qos.stats.exact);

  const auto exactClosest = solveClosestHomogeneous(inst);
  const auto exactMultiple = solveMultipleHomogeneousDP(inst);
  const auto exactQos = solveClosestHomogeneousQos(inst);
  ASSERT_TRUE(exactClosest && exactMultiple && exactQos);
  ASSERT_TRUE(closest.feasible && multiple.feasible && qos.feasible);
  EXPECT_EQ(static_cast<std::size_t>(closest.replicas), exactClosest->replicaCount());
  EXPECT_EQ(static_cast<std::size_t>(multiple.replicas), exactMultiple->replicaCount());
  EXPECT_EQ(static_cast<std::size_t>(qos.replicas), exactQos->replicaCount());
}

using StreamCount = std::function<StreamCountResult(const ProblemInstance&,
                                                    const FrontierStreamOptions&)>;

struct StreamPolicy {
  const char* name;
  StreamCount count;
  double qosFraction;
};

const StreamPolicy kStreamPolicies[] = {
    {"Closest", countClosestHomogeneousStreaming, 0.0},
    {"Multiple", countMultipleHomogeneousStreaming, 0.0},
    {"ClosestQos", countClosestQosStreaming, 0.4},
};

// Instance of the parity corpus: the random homogeneous family, with a
// nonzero computation time on some internals so the QoS place step is
// exercised too.
ProblemInstance parityInstance(std::uint64_t seed, double qosFraction) {
  ProblemInstance inst = randomHomogeneous(
      seed * 4099, 0.15 + 0.01 * static_cast<double>(seed % 50), qosFraction);
  for (const VertexId v : inst.tree.internals())
    inst.compTime[static_cast<std::size_t>(v)] = 0.25 * static_cast<double>(v % 3);
  return inst;
}

// The same instance with vertex v renamed newId[v]; every per-vertex array
// moves with its vertex.
ProblemInstance relabelled(const ProblemInstance& in, const std::vector<VertexId>& newId) {
  const std::size_t n = in.tree.vertexCount();
  std::vector<VertexId> parents(n);
  std::vector<VertexKind> kinds(n);
  ProblemInstance out = in;
  for (std::size_t v = 0; v < n; ++v) {
    const auto w = static_cast<std::size_t>(newId[v]);
    const VertexId p = in.tree.parent(static_cast<VertexId>(v));
    parents[w] = p == kNoVertex ? kNoVertex : newId[static_cast<std::size_t>(p)];
    kinds[w] = in.tree.kind(static_cast<VertexId>(v));
    out.requests[w] = in.requests[v];
    out.capacity[w] = in.capacity[v];
    out.storageCost[w] = in.storageCost[v];
    out.commTime[w] = in.commTime[v];
    out.bandwidth[w] = in.bandwidth[v];
    out.qos[w] = in.qos[v];
    out.compTime[w] = in.compTime[v];
  }
  out.tree = Tree::fromParents(std::move(parents), std::move(kinds));
  return out;
}

void expectSameCount(const StreamCountResult& a, const StreamCountResult& b,
                     const std::string& where) {
  EXPECT_EQ(a.feasible, b.feasible) << where;
  EXPECT_EQ(a.replicas, b.replicas) << where;
  EXPECT_EQ(a.stats.peakWidth, b.stats.peakWidth) << where;
  EXPECT_EQ(a.stats.peakStackEntries, b.stats.peakStackEntries) << where;
  EXPECT_EQ(a.stats.peakBytes, b.stats.peakBytes) << where;
  EXPECT_EQ(a.stats.convolutions, b.stats.convolutions) << where;
  EXPECT_EQ(a.stats.pairsMerged, b.stats.pairsMerged) << where;
  EXPECT_EQ(a.stats.cappedMerges, b.stats.cappedMerges) << where;
  EXPECT_EQ(a.stats.droppedPoints, b.stats.droppedPoints) << where;
  EXPECT_EQ(a.stats.capGapBound, b.stats.capGapBound) << where;
  EXPECT_EQ(a.stats.exact, b.stats.exact) << where;
}

// The streaming walk folds children in raw id order, which is the order
// preorder visits them. Renumbering the vertices in preorder keeps every
// vertex's children in the same relative order, so the whole fold sequence —
// and with it every count and stats field, capped runs included — must be
// unchanged.
TEST(FrontierStream, PreorderRelabelKeepsEveryResultField) {
  FrontierStreamOptions tiny;
  tiny.widthCap = 3;
  for (const StreamPolicy& policy : kStreamPolicies) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const ProblemInstance inst = parityInstance(seed, policy.qosFraction);
      std::vector<VertexId> newId(inst.tree.vertexCount());
      const auto& order = inst.tree.preorder();
      for (std::size_t p = 0; p < order.size(); ++p)
        newId[static_cast<std::size_t>(order[p])] = static_cast<VertexId>(p);
      const ProblemInstance pre = relabelled(inst, newId);
      const std::string where = std::string(policy.name) + " seed " + std::to_string(seed);
      expectSameCount(policy.count(inst, {}), policy.count(pre, {}), where);
      expectSameCount(policy.count(inst, tiny), policy.count(pre, tiny), where + " capped");
    }
  }
}

// Any numbering changes the fold order but not the optimum: uncapped counts
// on a randomly relabelled copy agree with the original.
TEST(FrontierStream, RandomRelabelKeepsUncappedCounts) {
  for (const StreamPolicy& policy : kStreamPolicies) {
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const ProblemInstance inst = parityInstance(seed, policy.qosFraction);
      std::vector<VertexId> newId(inst.tree.vertexCount());
      std::iota(newId.begin(), newId.end(), VertexId{0});
      Prng rng(seed);
      rng.shuffle(newId);
      const StreamCountResult a = policy.count(inst, {});
      const StreamCountResult b = policy.count(relabelled(inst, newId), {});
      ASSERT_TRUE(a.stats.exact && b.stats.exact) << policy.name << " seed " << seed;
      EXPECT_EQ(a.feasible, b.feasible) << policy.name << " seed " << seed;
      EXPECT_EQ(a.replicas, b.replicas) << policy.name << " seed " << seed;
    }
  }
}

// One safepoint per visit: every non-root vertex is visited once as a child
// and every internal vertex once more when its frame closes, so a full walk
// charges (n - 1) + #internals steps. A step budget of exactly that many
// completes with the same answer; one fewer trips on the last visit.
TEST(FrontierStream, WalkChargesOneStepPerVisit) {
  for (const StreamPolicy& policy : kStreamPolicies) {
    int full = 0;
    for (std::uint64_t seed = 1; seed <= 100; ++seed) {
      const ProblemInstance inst = parityInstance(seed, policy.qosFraction);
      const long visits = static_cast<long>(inst.tree.vertexCount() - 1 +
                                            inst.tree.internals().size());
      const std::string where = std::string(policy.name) + " seed " + std::to_string(seed);
      SolveBudget budget;
      budget.maxSteps = std::numeric_limits<long>::max() / 2;
      BudgetGuard unbounded(budget);
      FrontierStreamOptions options;
      options.guard = &unbounded;
      const StreamCountResult reference = policy.count(inst, options);
      // An infeasible fold stops the walk early; only full walks pin the
      // formula.
      if (!reference.feasible) {
        EXPECT_LE(unbounded.stepsUsed(), visits) << where;
        continue;
      }
      ++full;
      EXPECT_EQ(unbounded.stepsUsed(), visits) << where;

      budget.maxSteps = visits;
      BudgetGuard exact(budget);
      options.guard = &exact;
      StreamCountResult again;
      ASSERT_NO_THROW(again = policy.count(inst, options)) << where;
      EXPECT_EQ(again.replicas, reference.replicas) << where;

      budget.maxSteps = visits - 1;
      BudgetGuard short1(budget);
      options.guard = &short1;
      EXPECT_THROW(policy.count(inst, options), SolveInterrupted) << where;
      EXPECT_EQ(short1.verdict(), BudgetVerdict::StepLimit) << where;
      EXPECT_EQ(short1.stepsUsed(), visits) << where;
    }
    EXPECT_GE(full, 20) << policy.name;  // the formula was actually exercised
  }
}

// One recorded streaming run: policy (an index into kStreamPolicies),
// width cap, and the result fields a change of merge kernel could move.
struct RecordedRun {
  int policy;
  std::int32_t widthCap;
  bool feasible;
  std::int32_t replicas;
  bool exact;
  std::size_t cappedMerges;
  std::size_t droppedPoints;
  std::int64_t capGapBound;
  long stepsUsed;
};

// Per tree: caps 512, 8, 3, 2, each for the three policies. A mismatch is a
// changed answer or cap decision, not noise: every run is deterministic.
const RecordedRun kRecordedRuns[] = {
    // lambda 0.2, seed 1
    {0, 512, true, 185, true, 0, 0, 0, 3599},
    {1, 512, true, 129, true, 0, 0, 0, 3599},
    {2, 512, true, 185, true, 0, 0, 0, 3599},
    {0, 8, true, 185, true, 0, 0, 0, 3599},
    {1, 8, true, 129, false, 7, 10, 7, 3599},
    {2, 8, true, 185, true, 0, 0, 0, 3599},
    {0, 3, true, 185, false, 8, 8, 8, 3599},
    {1, 3, true, 196, false, 248, 451, 650, 3599},
    {2, 3, true, 185, false, 89, 97, 25, 3599},
    {0, 2, true, 185, false, 196, 201, 204, 3599},
    {1, 2, true, 255, false, 381, 512, 1408, 3599},
    {2, 2, true, 185, false, 218, 256, 210, 3599},
    // lambda 0.2, seed 2
    {0, 512, true, 181, true, 0, 0, 0, 3599},
    {1, 512, true, 133, true, 0, 0, 0, 3599},
    {2, 512, true, 181, true, 0, 0, 0, 3599},
    {0, 8, true, 181, true, 0, 0, 0, 3599},
    {1, 8, true, 137, false, 58, 146, 113, 3599},
    {2, 8, true, 181, true, 0, 0, 0, 3599},
    {0, 3, true, 181, true, 0, 0, 0, 3599},
    {1, 3, true, 203, false, 268, 505, 1035, 3599},
    {2, 3, true, 181, false, 55, 59, 6, 3599},
    {0, 2, true, 181, false, 192, 192, 192, 3599},
    {1, 2, true, 246, false, 378, 511, 1822, 3599},
    {2, 2, true, 181, false, 207, 233, 194, 3599},
    // lambda 0.2, seed 3
    {0, 512, true, 186, true, 0, 0, 0, 3599},
    {1, 512, true, 136, true, 0, 0, 0, 3599},
    {2, 512, true, 186, true, 0, 0, 0, 3599},
    {0, 8, true, 186, true, 0, 0, 0, 3599},
    {1, 8, true, 136, false, 15, 16, 19, 3599},
    {2, 8, true, 186, true, 0, 0, 0, 3599},
    {0, 3, true, 186, false, 3, 3, 3, 3599},
    {1, 3, true, 202, false, 253, 460, 641, 3599},
    {2, 3, true, 186, false, 70, 80, 15, 3599},
    {0, 2, true, 187, false, 199, 201, 201, 3599},
    {1, 2, true, 250, false, 363, 493, 1397, 3599},
    {2, 2, true, 187, false, 211, 234, 201, 3599},
    // lambda 0.2, seed 4
    {0, 512, true, 178, true, 0, 0, 0, 3599},
    {1, 512, true, 132, true, 0, 0, 0, 3599},
    {2, 512, true, 178, true, 0, 0, 0, 3599},
    {0, 8, true, 178, true, 0, 0, 0, 3599},
    {1, 8, true, 132, false, 18, 21, 20, 3599},
    {2, 8, true, 178, true, 0, 0, 0, 3599},
    {0, 3, true, 178, false, 1, 1, 1, 3599},
    {1, 3, true, 194, false, 250, 445, 669, 3599},
    {2, 3, true, 178, false, 73, 81, 15, 3599},
    {0, 2, true, 179, false, 183, 183, 183, 3599},
    {1, 2, true, 243, false, 374, 501, 1490, 3599},
    {2, 2, true, 179, false, 213, 243, 184, 3599},
    // lambda 0.5, seed 1
    {0, 512, false, 0, true, 0, 0, 0, 82},
    {1, 512, true, 303, true, 0, 0, 0, 3599},
    {2, 512, false, 0, true, 0, 0, 0, 82},
    {0, 8, false, 0, true, 0, 0, 0, 82},
    {1, 8, true, 303, false, 7, 9, 7, 3599},
    {2, 8, false, 0, true, 0, 0, 0, 82},
    {0, 3, false, 0, true, 0, 0, 0, 82},
    {1, 3, true, 345, false, 329, 526, 643, 3599},
    {2, 3, false, 0, true, 0, 0, 0, 82},
    {0, 2, false, 0, true, 0, 0, 0, 82},
    {1, 2, true, 361, false, 421, 545, 1154, 3599},
    {2, 2, false, 0, false, 1, 1, 0, 82},
    // lambda 0.5, seed 2
    {0, 512, false, 0, true, 0, 0, 0, 32},
    {1, 512, true, 301, true, 0, 0, 0, 3599},
    {2, 512, false, 0, true, 0, 0, 0, 32},
    {0, 8, false, 0, true, 0, 0, 0, 32},
    {1, 8, true, 303, false, 58, 127, 103, 3599},
    {2, 8, false, 0, true, 0, 0, 0, 32},
    {0, 3, false, 0, true, 0, 0, 0, 32},
    {1, 3, true, 354, false, 343, 655, 1056, 3599},
    {2, 3, false, 0, true, 0, 0, 0, 32},
    {0, 2, false, 0, true, 0, 0, 0, 32},
    {1, 2, true, 366, false, 432, 580, 1677, 3599},
    {2, 2, false, 0, true, 0, 0, 0, 32},
    // lambda 0.5, seed 3
    {0, 512, false, 0, true, 0, 0, 0, 39},
    {1, 512, true, 303, true, 0, 0, 0, 3599},
    {2, 512, false, 0, true, 0, 0, 0, 39},
    {0, 8, false, 0, true, 0, 0, 0, 39},
    {1, 8, true, 303, false, 8, 11, 10, 3599},
    {2, 8, false, 0, true, 0, 0, 0, 39},
    {0, 3, false, 0, true, 0, 0, 0, 39},
    {1, 3, true, 359, false, 331, 560, 747, 3599},
    {2, 3, false, 0, true, 0, 0, 0, 39},
    {0, 2, false, 0, true, 0, 0, 0, 39},
    {1, 2, true, 369, false, 414, 541, 1213, 3599},
    {2, 2, false, 0, true, 0, 0, 0, 39},
    // lambda 0.5, seed 4
    {0, 512, false, 0, true, 0, 0, 0, 18},
    {1, 512, true, 303, true, 0, 0, 0, 3599},
    {2, 512, false, 0, true, 0, 0, 0, 18},
    {0, 8, false, 0, true, 0, 0, 0, 18},
    {1, 8, true, 303, false, 19, 22, 25, 3599},
    {2, 8, false, 0, true, 0, 0, 0, 18},
    {0, 3, false, 0, true, 0, 0, 0, 18},
    {1, 3, true, 376, false, 348, 660, 1024, 3599},
    {2, 3, false, 0, true, 0, 0, 0, 18},
    {0, 2, false, 0, true, 0, 0, 0, 18},
    {1, 2, true, 387, false, 456, 593, 1535, 3599},
    {2, 2, false, 0, true, 0, 0, 0, 18},
    // lambda 0.8, seed 1
    {0, 512, false, 0, true, 0, 0, 0, 9},
    {1, 512, false, 0, true, 0, 0, 0, 3008},
    {2, 512, false, 0, true, 0, 0, 0, 9},
    {0, 8, false, 0, true, 0, 0, 0, 9},
    {1, 8, false, 0, false, 11, 17, 22, 3008},
    {2, 8, false, 0, true, 0, 0, 0, 9},
    {0, 3, false, 0, true, 0, 0, 0, 9},
    {1, 3, false, 0, false, 294, 521, 543, 3008},
    {2, 3, false, 0, true, 0, 0, 0, 9},
    {0, 2, false, 0, true, 0, 0, 0, 9},
    {1, 2, false, 0, false, 394, 537, 956, 3008},
    {2, 2, false, 0, true, 0, 0, 0, 9},
    // lambda 0.8, seed 2
    {0, 512, false, 0, true, 0, 0, 0, 16},
    {1, 512, false, 0, true, 0, 0, 0, 1894},
    {2, 512, false, 0, true, 0, 0, 0, 16},
    {0, 8, false, 0, true, 0, 0, 0, 16},
    {1, 8, false, 0, false, 64, 165, 113, 1894},
    {2, 8, false, 0, true, 0, 0, 0, 16},
    {0, 3, false, 0, true, 0, 0, 0, 16},
    {1, 3, false, 0, false, 209, 443, 619, 1894},
    {2, 3, false, 0, true, 0, 0, 0, 16},
    {0, 2, false, 0, true, 0, 0, 0, 16},
    {1, 2, false, 0, false, 280, 400, 925, 1894},
    {2, 2, false, 0, true, 0, 0, 0, 16},
    // lambda 0.8, seed 3
    {0, 512, false, 0, true, 0, 0, 0, 13},
    {1, 512, false, 0, true, 0, 0, 0, 919},
    {2, 512, false, 0, true, 0, 0, 0, 13},
    {0, 8, false, 0, true, 0, 0, 0, 13},
    {1, 8, false, 0, false, 14, 29, 21, 919},
    {2, 8, false, 0, true, 0, 0, 0, 13},
    {0, 3, false, 0, true, 0, 0, 0, 13},
    {1, 3, false, 0, false, 90, 187, 216, 919},
    {2, 3, false, 0, true, 0, 0, 0, 13},
    {0, 2, false, 0, true, 0, 0, 0, 13},
    {1, 2, false, 0, false, 125, 166, 380, 919},
    {2, 2, false, 0, true, 0, 0, 0, 13},
    // lambda 0.8, seed 4
    {0, 512, false, 0, true, 0, 0, 0, 15},
    {1, 512, false, 0, true, 0, 0, 0, 1925},
    {2, 512, false, 0, true, 0, 0, 0, 15},
    {0, 8, false, 0, true, 0, 0, 0, 15},
    {1, 8, false, 0, false, 29, 49, 38, 1925},
    {2, 8, false, 0, true, 0, 0, 0, 15},
    {0, 3, false, 0, true, 0, 0, 0, 15},
    {1, 3, false, 0, false, 199, 401, 487, 1925},
    {2, 3, false, 0, true, 0, 0, 0, 15},
    {0, 2, false, 0, true, 0, 0, 0, 15},
    {1, 2, false, 0, false, 282, 378, 811, 1925},
    {2, 2, false, 0, true, 0, 0, 0, 15},
};

// Capped runs are otherwise checked for their bracket properties only. This
// pins every count and cap counter, capped runs included, on 12 at-scale
// trees (s=3000, lambda 0.2 / 0.5 / 0.8, four seeds each), so a merge kernel
// that keeps or drops different points shows up here.
TEST(FrontierStream, ResultsMatchRecordedValues) {
  constexpr std::size_t kRunsPerTree = 12;
  ASSERT_EQ(std::size(kRecordedRuns), 12 * kRunsPerTree);
  std::size_t row = 0;
  for (const double lambda : {0.2, 0.5, 0.8}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const ProblemInstance inst = generateInstance(atScaleProfile(3000, lambda), seed, 0);
      for (std::size_t k = 0; k < kRunsPerTree; ++k, ++row) {
        const RecordedRun& want = kRecordedRuns[row];
        SolveBudget budget;
        budget.maxSteps = std::numeric_limits<long>::max() / 2;
        BudgetGuard guard(budget);
        FrontierStreamOptions options;
        options.widthCap = want.widthCap;
        options.guard = &guard;
        const StreamCountResult got = kStreamPolicies[want.policy].count(inst, options);
        const std::string where = "row " + std::to_string(row);
        EXPECT_EQ(got.feasible, want.feasible) << where;
        EXPECT_EQ(got.replicas, want.replicas) << where;
        EXPECT_EQ(got.stats.exact, want.exact) << where;
        EXPECT_EQ(got.stats.cappedMerges, want.cappedMerges) << where;
        EXPECT_EQ(got.stats.droppedPoints, want.droppedPoints) << where;
        EXPECT_EQ(got.stats.capGapBound, want.capGapBound) << where;
        EXPECT_EQ(guard.stepsUsed(), want.stepsUsed) << where;
      }
    }
  }
}

// A cap below two cannot keep both ends of a frontier; it is a caller error,
// not a silently uncapped run.
TEST(FrontierStream, WidthCapBelowTwoIsRejected) {
  const ProblemInstance inst = parityInstance(3, 0.4);
  for (const StreamPolicy& policy : kStreamPolicies) {
    for (const std::int32_t cap : {0, 1, -5}) {
      FrontierStreamOptions options;
      options.widthCap = cap;
      EXPECT_THROW(policy.count(inst, options), PreconditionError)
          << policy.name << " cap " << cap;
    }
    FrontierStreamOptions two;
    two.widthCap = 2;
    EXPECT_NO_THROW(policy.count(inst, two)) << policy.name;
  }
}

// The streaming counts grow the same arena as the frontier cache, so armed
// Allocation faults reach them too and surface as std::bad_alloc.
TEST(FrontierStream, ArenaGrowthIsAnAllocationFaultSite) {
  const ProblemInstance inst = parityInstance(5, 0.4);
  for (const StreamPolicy& policy : kStreamPolicies) {
    fault::Plan plan;
    plan.armSite(fault::Site::Allocation, /*period=*/1);
    const fault::ScopedPlan armed(plan);
    EXPECT_THROW(policy.count(inst, {}), std::bad_alloc) << policy.name;
    EXPECT_GE(fault::fireCount(fault::Site::Allocation), 1) << policy.name;
  }
}

}  // namespace
}  // namespace treeplace
