#include "lp/branch_bound.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lp_oracle.hpp"
#include "support/prng.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

/// 0/1 knapsack as a MIP: max value = min -value, one weight row.
struct Knapsack {
  std::vector<double> value;
  std::vector<double> weight;
  double capacity;
};

Model knapsackModel(const Knapsack& k) {
  Model m;
  std::vector<int> vars;
  for (std::size_t i = 0; i < k.value.size(); ++i)
    vars.push_back(m.addVariable(0.0, 1.0, -k.value[i], VarType::Integer));
  std::vector<Term> row;
  for (std::size_t i = 0; i < k.weight.size(); ++i)
    row.push_back(t(vars[i], k.weight[i]));
  m.addConstraint(Sense::LessEqual, k.capacity, row);
  return m;
}

MipResult solveKnapsack(const Knapsack& k, const MipOptions& options = {}) {
  return solveMip(knapsackModel(k), options);
}

double knapsackByDp(const Knapsack& k) {
  const auto capacity = static_cast<int>(k.capacity);
  std::vector<double> best(static_cast<std::size_t>(capacity) + 1, 0.0);
  for (std::size_t i = 0; i < k.value.size(); ++i) {
    const int w = static_cast<int>(k.weight[i]);
    for (int c = capacity; c >= w; --c)
      best[static_cast<std::size_t>(c)] =
          std::max(best[static_cast<std::size_t>(c)],
                   best[static_cast<std::size_t>(c - w)] + k.value[i]);
  }
  return best[static_cast<std::size_t>(capacity)];
}

TEST(BranchBound, SmallKnapsackExact) {
  const Knapsack k{{10.0, 13.0, 7.0, 8.0}, {3.0, 4.0, 2.0, 3.0}, 7.0};
  const MipResult r = solveKnapsack(k);
  ASSERT_TRUE(r.hasIncumbent());
  EXPECT_TRUE(r.proven);
  EXPECT_NEAR(-r.objective, knapsackByDp(k), 1e-6);
}

class KnapsackRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackRandom, MatchesDp) {
  Prng rng(GetParam());
  Knapsack k;
  const int n = 10;
  for (int i = 0; i < n; ++i) {
    k.value.push_back(static_cast<double>(rng.uniformInt(1, 30)));
    k.weight.push_back(static_cast<double>(rng.uniformInt(1, 12)));
  }
  k.capacity = static_cast<double>(rng.uniformInt(10, 40));
  const MipResult r = solveKnapsack(k);
  ASSERT_TRUE(r.hasIncumbent());
  EXPECT_TRUE(r.proven);
  EXPECT_NEAR(-r.objective, knapsackByDp(k), 1e-6);
  // Incumbent must be integral and feasible.
  double load = 0.0;
  for (std::size_t i = 0; i < k.weight.size(); ++i) {
    const double x = r.values[i];
    EXPECT_TRUE(std::abs(x) < 1e-9 || std::abs(x - 1.0) < 1e-9);
    load += x * k.weight[i];
  }
  EXPECT_LE(load, k.capacity + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackRandom,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u));

TEST(BranchBound, PureLpWhenNoIntegers) {
  Model m;
  const int x = m.addVariable(0.0, 10.0, -1.0);
  m.addConstraint(Sense::LessEqual, 4.5, std::vector<Term>{t(x, 1.0)});
  const MipResult r = solveMip(m);
  ASSERT_TRUE(r.hasIncumbent());
  EXPECT_NEAR(r.objective, -4.5, 1e-7);
  EXPECT_TRUE(r.proven);
}

TEST(BranchBound, InfeasibleMip) {
  Model m;
  const int x = m.addVariable(0.0, 1.0, 1.0, VarType::Integer);
  m.addConstraint(Sense::GreaterEqual, 2.0, std::vector<Term>{t(x, 1.0)});
  const MipResult r = solveMip(m);
  EXPECT_EQ(r.status, SolveStatus::Infeasible);
  EXPECT_FALSE(r.hasIncumbent());
}

TEST(BranchBound, IntegralityGapForcesBranching) {
  // max x1 + x2 s.t. 2x1 + 2x2 <= 3, binary: LP gives 1.5, MIP 1.
  Model m;
  const int a = m.addVariable(0.0, 1.0, -1.0, VarType::Integer);
  const int b = m.addVariable(0.0, 1.0, -1.0, VarType::Integer);
  m.addConstraint(Sense::LessEqual, 3.0, std::vector<Term>{t(a, 2.0), t(b, 2.0)});
  const MipResult r = solveMip(m);
  ASSERT_TRUE(r.hasIncumbent());
  EXPECT_NEAR(r.objective, -1.0, 1e-7);
  EXPECT_GT(r.nodesExplored, 1);
}

TEST(BranchBound, LowerBoundValidUnderNodeBudget) {
  // A knapsack too big to finish in 3 nodes still yields a valid dual bound.
  Prng rng(99);
  Knapsack k;
  for (int i = 0; i < 14; ++i) {
    k.value.push_back(static_cast<double>(rng.uniformInt(5, 30)));
    k.weight.push_back(static_cast<double>(rng.uniformInt(2, 9)));
  }
  k.capacity = 20.0;
  MipOptions limited;
  limited.maxNodes = 3;
  const MipResult r = solveKnapsack(k, limited);
  const double trueOpt = -knapsackByDp(k);
  EXPECT_LE(r.lowerBound, trueOpt + 1e-6) << "dual bound must stay below the optimum";
}

/// A search whose node pool empties exactly when the budget is reached is a
/// COMPLETED search: the limit never truncated anything. Regression test for
/// the strict-< off-by-one that reported such runs unproven, in the engine
/// and in the cold oracle of tests/lp_oracle alike.
TEST(BranchBound, ProofSurvivesExactNodeBudgetBoundary) {
  const Knapsack k{{10.0, 13.0, 7.0, 8.0}, {3.0, 4.0, 2.0, 3.0}, 7.0};
  const MipResult full = solveKnapsack(k);
  ASSERT_TRUE(full.proven);
  ASSERT_GT(full.nodesExplored, 1);

  // Exactly the node count of the completed search: still proven.
  MipOptions exact;
  exact.maxNodes = full.nodesExplored;
  const MipResult atBoundary = solveKnapsack(k, exact);
  EXPECT_TRUE(atBoundary.proven);
  EXPECT_EQ(atBoundary.nodesExplored, full.nodesExplored);
  EXPECT_NEAR(atBoundary.objective, full.objective, 1e-9);

  // One node short: genuinely truncated, must stay unproven.
  MipOptions short1;
  short1.maxNodes = full.nodesExplored - 1;
  const MipResult truncated = solveKnapsack(k, short1);
  EXPECT_FALSE(truncated.proven);

  const Model m = knapsackModel(k);
  const oracle::MipSolution oracleFull = oracle::solveMip(m);
  ASSERT_TRUE(oracleFull.proven);
  ASSERT_GT(oracleFull.nodesExplored, 1);
  EXPECT_NEAR(oracleFull.objective, full.objective, 1e-9);
  const oracle::MipSolution oracleAtBoundary =
      oracle::solveMip(m, oracleFull.nodesExplored);
  EXPECT_TRUE(oracleAtBoundary.proven);
  EXPECT_EQ(oracleAtBoundary.nodesExplored, oracleFull.nodesExplored);
  EXPECT_FALSE(oracle::solveMip(m, oracleFull.nodesExplored - 1).proven);
}

TEST(BranchBound, ExternalUpperBoundPrunes) {
  const Knapsack k{{10.0, 13.0, 7.0, 8.0}, {3.0, 4.0, 2.0, 3.0}, 7.0};
  const double opt = -knapsackByDp(k);
  MipOptions options;
  options.initialUpperBound = opt;  // the true optimum, supplied externally
  const MipResult r = solveKnapsack(k, options);
  EXPECT_TRUE(r.proven);
  EXPECT_NEAR(r.lowerBound, opt, 1e-5);
  EXPECT_NEAR(r.objective, opt, 1e-5);
}

TEST(BranchBound, IntegerVariableWithWiderRange) {
  // min 3x + 2y s.t. x + y >= 7.3, x integer in [0,10], y rational in [0,2].
  Model m;
  const int x = m.addVariable(0.0, 10.0, 3.0, VarType::Integer);
  const int y = m.addVariable(0.0, 2.0, 2.0);
  m.addConstraint(Sense::GreaterEqual, 7.3, std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  const MipResult r = solveMip(m);
  ASSERT_TRUE(r.hasIncumbent());
  // Best: x = 6, y = 1.3 -> 18 + 2.6 = 20.6.
  EXPECT_NEAR(r.objective, 20.6, 1e-6);
  EXPECT_NEAR(r.values[static_cast<std::size_t>(x)], 6.0, 1e-9);
}

}  // namespace
}  // namespace treeplace::lp
