// Pins the warm dual simplex's pivot path. Every value below was recorded
// from the engine and is compared bit for bit: a refactoring of pricing,
// FTRAN/BTRAN or the ratio tests that is meant to be exact must reproduce
// them. A change that alters pivoting on purpose (a new pricing rule such as
// dual steepest edge, a different ratio test) re-records the tables and says
// so in its change notes.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "formulation/lower_bound.hpp"
#include "tree/generator.hpp"
#include "tree/paper_instances.hpp"

namespace treeplace {
namespace {

/// Fleet-style trees (s_j = W_j), the shape perfbench's fleet workload
/// bounds: every lambda of the paper's sweep, homogeneous and heterogeneous,
/// two sizes each.
constexpr double kLambdas[] = {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9};
constexpr int kSizes[] = {45, 150};
constexpr std::uint64_t kSeed = 1;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct GoldenBound {
  double bound;
  double frontierBound;
  bool exact;
  bool lpFeasible;
  long nodes;
};

// One row per (heterogeneous, lambda, size), in that loop order.
constexpr GoldenBound kGoldenBounds[] = {
    {0x1.13p+8, 0x1.13p+8, false, true, 400},
    {0x1.ddp+8, 0x1.ddp+8, false, true, 400},
    {0x1.18p+7, 0x1.18p+7, true, true, 198},
    {0x1.cp+8, 0x1.cp+8, false, true, 400},
    {0x1.0ap+7, 0x1.0ap+7, false, true, 400},
    {0x1.c8p+8, 0x1.c8p+8, false, true, 400},
    {0x1.04p+7, 0x1.04p+7, false, true, 400},
    {0x1.b2p+8, 0x1.b2p+8, false, true, 400},
    {0x1.ep+6, 0x1.ep+6, false, true, 400},
    {0x1.adp+8, 0x1.adp+8, false, true, 400},
    {0x1.0ep+7, 0x1.0ep+7, false, true, 400},
    {0x1.bp+8, 0x1.bp+8, false, true, 400},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {0x1.4p+7, 0x1.4p+7, true, true, 79},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {0x1.32p+7, 0x1.88p+5, false, true, 400},
    {0x1.a8p+8, 0x1.28p+6, false, true, 400},
    {0x1.c4p+6, 0x1.28p+5, true, true, 238},
    {0x1.aap+8, 0x1.2ep+7, false, true, 400},
    {kInf, 0x0p+0, true, false, 1},
    {0x1.a1p+8, 0x1.52p+7, false, true, 400},
    {0x1.c4p+6, 0x1.0cp+6, true, true, 227},
    {0x1.9ep+8, 0x1.b8p+7, false, true, 400},
    {kInf, 0x0p+0, true, false, 1},
    {0x1.c5p+8, 0x1.1ap+8, false, true, 400},
    {0x1.b8p+6, 0x1.7p+5, true, true, 31},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
    {kInf, 0x0p+0, true, false, 1},
};

ProblemInstance fleetTree(bool heterogeneous, double lambda, int size, std::uint64_t index) {
  GeneratorConfig config;
  config.lambda = lambda;
  config.heterogeneous = heterogeneous;
  config.minSize = config.maxSize = size;
  return generateInstance(config, kSeed, index);
}

std::string hexFloat(double v) {
  if (v == kInf) return "kInf";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

TEST(LpGolden, RefinedLowerBoundsOnFleetTrees) {
  std::vector<GoldenBound> actual;
  std::uint64_t index = 0;
  for (const bool heterogeneous : {false, true})
    for (const double lambda : kLambdas)
      for (const int size : kSizes) {
        LowerBoundOptions options;
        options.maxNodes = 400;
        const LowerBoundResult lb =
            refinedLowerBound(fleetTree(heterogeneous, lambda, size, index++), options);
        actual.push_back({lb.bound, lb.frontierBound, lb.exact, lb.lpFeasible, lb.nodesExplored});
      }
  std::string table;
  for (const GoldenBound& g : actual)
    table += "    {" + hexFloat(g.bound) + ", " + hexFloat(g.frontierBound) + ", " +
             (g.exact ? "true" : "false") + ", " + (g.lpFeasible ? "true" : "false") + ", " +
             std::to_string(g.nodes) + "},\n";
  ASSERT_EQ(actual.size(), std::size(kGoldenBounds)) << "recorded table:\n" << table;
  for (std::size_t k = 0; k < actual.size(); ++k) {
    const GoldenBound& want = kGoldenBounds[k];
    const GoldenBound& got = actual[k];
    SCOPED_TRACE("tree " + std::to_string(k));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.bound), std::bit_cast<std::uint64_t>(want.bound))
        << hexFloat(got.bound) << " vs " << hexFloat(want.bound);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.frontierBound),
              std::bit_cast<std::uint64_t>(want.frontierBound));
    EXPECT_EQ(got.exact, want.exact);
    EXPECT_EQ(got.lpFeasible, want.lpFeasible);
    EXPECT_EQ(got.nodes, want.nodes);
  }
}

// The bare (cuts-off) Theorem 3 reduction at m = 14 under one inline worker:
// ~12.7k warm dual re-solves, so any drift in pricing or the ratio tests
// shows up in these counters long before it moves a node count.
TEST(LpGolden, TwoPartitionReductionWarmStartCounters) {
  std::vector<Requests> values(13, 4);
  values.push_back(6);
  ExactIlpOptions options;
  options.frontierCuts = false;
  options.symmetryCuts = false;
  options.mip.maxNodes = 3000000;
  options.mip.workers = 0;
  const ExactIlpResult exact =
      solveExactViaIlp(fig8TwoPartition(values), Policy::Multiple, options);
  ASSERT_TRUE(exact.proven);
  EXPECT_EQ(exact.cost, 60.0);
  EXPECT_EQ(exact.nodesExplored, 12729);
  EXPECT_EQ(exact.warm.dualIterations, 14857);
  EXPECT_EQ(exact.warm.boundFlips, 137560);
  EXPECT_EQ(exact.warm.refactorizations, 264);
  EXPECT_EQ(exact.warm.etaCount, 14887);
}

}  // namespace
}  // namespace treeplace
