// The worker-pool branch-and-bound across worker counts: a 100+ instance
// cross-check (same proven optimum, valid incumbent, for N = 1, 2, 4, 8
// workers against the default inline worker) plus the determinism harness —
// workers = 0 and workers = 1 both run one inline worker and must agree bit
// for bit (same node count, same solve sequence) on fixed seeds.
#include "lp/branch_bound.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "exact/exact_ilp.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/paper_instances.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

/// 0/1 knapsack + a side pairing row; the same family test_warm_bb checks
/// against the cold oracle.
Model randomKnapsackMip(Prng& rng, int n = 8) {
  Model m;
  for (int j = 0; j < n; ++j)
    m.addVariable(0.0, 1.0, -static_cast<double>(rng.uniformInt(1, 30)),
                  VarType::Integer);
  std::vector<Term> row;
  for (int j = 0; j < n; ++j)
    row.push_back(t(j, static_cast<double>(rng.uniformInt(1, 12))));
  m.addConstraint(Sense::LessEqual, static_cast<double>(rng.uniformInt(10, 40)),
                  row);
  std::vector<Term> pair{t(static_cast<int>(rng.uniformInt(0, n - 1)), 1.0),
                         t(static_cast<int>(rng.uniformInt(0, n - 1)), 1.0)};
  m.addConstraint(Sense::LessEqual, 1.0, pair);
  return m;
}

/// The incumbent must actually satisfy the model: every row within tolerance,
/// every variable inside its box, every integer variable integral.
::testing::AssertionResult incumbentFeasible(const Model& m,
                                             const std::vector<double>& x) {
  constexpr double kTol = 1e-6;
  if (x.size() != static_cast<std::size_t>(m.variableCount()))
    return ::testing::AssertionFailure() << "incumbent has wrong arity";
  for (int j = 0; j < m.variableCount(); ++j) {
    const double v = x[static_cast<std::size_t>(j)];
    if (v < m.lower(j) - kTol || v > m.upper(j) + kTol)
      return ::testing::AssertionFailure()
             << "x[" << j << "]=" << v << " outside [" << m.lower(j) << ", "
             << m.upper(j) << "]";
  }
  for (const int j : m.integerVariables()) {
    const double v = x[static_cast<std::size_t>(j)];
    if (std::abs(v - std::round(v)) > kTol)
      return ::testing::AssertionFailure() << "x[" << j << "]=" << v
                                           << " not integral";
  }
  for (int r = 0; r < m.constraintCount(); ++r) {
    double lhs = 0.0;
    for (const Term& term : m.rowTerms(r))
      lhs += term.coefficient * x[static_cast<std::size_t>(term.variable)];
    const double rhs = m.rowRhs(r);
    const bool ok = m.rowSense(r) == Sense::LessEqual      ? lhs <= rhs + kTol
                    : m.rowSense(r) == Sense::GreaterEqual ? lhs >= rhs - kTol
                                                           : std::abs(lhs - rhs) <= kTol;
    if (!ok)
      return ::testing::AssertionFailure()
             << "row " << r << " violated: lhs=" << lhs << " rhs=" << rhs;
  }
  return ::testing::AssertionSuccess();
}

/// 100 instances: every worker count returns the default (workers = 0) run's
/// optimal objective, proof status, and a genuinely feasible incumbent.
TEST(ParallelBranchBound, MatchesSerialOnRandomMips) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Prng rng(seed);
    const Model m = randomKnapsackMip(rng);

    MipOptions serialOptions;  // workers = 0: one inline worker
    const MipResult serial = solveMip(m, serialOptions);
    ++compared;

    for (const int workers : {1, 2, 4, 8}) {
      MipOptions po;
      po.workers = workers;
      const MipResult parallel = solveMip(m, po);
      ASSERT_EQ(parallel.status, serial.status)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.proven, serial.proven)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.hasIncumbent(), serial.hasIncumbent())
          << "seed " << seed << " workers " << workers;
      EXPECT_EQ(parallel.warm.workers, workers) << "seed " << seed;
      if (!serial.hasIncumbent()) continue;
      EXPECT_NEAR(parallel.objective, serial.objective, 1e-9)
          << "seed " << seed << " workers " << workers;
      EXPECT_TRUE(incumbentFeasible(m, parallel.values))
          << "seed " << seed << " workers " << workers;
    }
  }
  EXPECT_EQ(compared, 100);
}

/// End to end on the Section 5 ILP (granularity rounding, frontier cuts,
/// known lower bound, branch priorities all active): parallel workers return
/// the inline worker's optimum and a policy-valid placement.
TEST(ParallelBranchBound, MatchesSerialOnIlpInstances) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const bool hetero = seed % 2 == 0;
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 1301 + (hetero ? 7 : 0), 0.6, hetero, /*unit=*/!hetero,
        /*minSize=*/6, /*maxSize=*/12);
    const Policy policy = seed % 2 == 0 ? Policy::Multiple : Policy::Upwards;

    const ExactIlpResult serial = solveExactViaIlp(inst, policy);
    ++compared;
    for (const int workers : {1, 4}) {
      ExactIlpOptions po;
      po.mip.workers = workers;
      const ExactIlpResult parallel = solveExactViaIlp(inst, policy, po);
      ASSERT_EQ(parallel.proven, serial.proven)
          << "seed " << seed << " workers " << workers;
      ASSERT_EQ(parallel.feasible(), serial.feasible())
          << "seed " << seed << " workers " << workers;
      if (!serial.feasible()) continue;
      EXPECT_NEAR(parallel.cost, serial.cost, 1e-9)
          << "seed " << seed << " workers " << workers;
      EXPECT_TRUE(testutil::placementValid(inst, *parallel.placement, policy))
          << "seed " << seed << " workers " << workers;
    }
  }
  EXPECT_EQ(compared, 25);
}

/// Fixed-seed determinism: workers = 0 and workers = 1 both run one inline
/// worker and must agree bit for bit — node count, solve mix, pivot counts,
/// and the exact objective/lower-bound doubles.
TEST(ParallelBranchBound, ZeroAndOneWorkersAreBitIdentical) {
  for (const std::uint64_t seed : {3ULL, 17ULL, 42ULL, 91ULL, 123ULL}) {
    Prng rng(seed);
    const Model m = randomKnapsackMip(rng, 10);

    MipOptions serialOptions;  // workers = 0
    const MipResult serial = solveMip(m, serialOptions);

    MipOptions po;
    po.workers = 1;
    const MipResult parallel = solveMip(m, po);

    ASSERT_EQ(parallel.status, serial.status) << "seed " << seed;
    EXPECT_EQ(parallel.nodesExplored, serial.nodesExplored) << "seed " << seed;
    EXPECT_EQ(parallel.warm.coldSolves, serial.warm.coldSolves) << "seed " << seed;
    EXPECT_EQ(parallel.warm.warmSolves, serial.warm.warmSolves) << "seed " << seed;
    EXPECT_EQ(parallel.warm.dualIterations, serial.warm.dualIterations)
        << "seed " << seed;
    EXPECT_EQ(parallel.warm.primalIterations, serial.warm.primalIterations)
        << "seed " << seed;
    EXPECT_EQ(parallel.warm.boundFlips, serial.warm.boundFlips) << "seed " << seed;
    EXPECT_EQ(parallel.warm.warmAlreadyOptimal, serial.warm.warmAlreadyOptimal)
        << "seed " << seed;
    // Same arithmetic sequence => the doubles are bit-identical, not just near.
    EXPECT_EQ(parallel.objective, serial.objective) << "seed " << seed;
    EXPECT_EQ(parallel.lowerBound, serial.lowerBound) << "seed " << seed;
    EXPECT_EQ(parallel.values, serial.values) << "seed " << seed;
    EXPECT_EQ(parallel.warm.stealCount, 0) << "seed " << seed;
    EXPECT_EQ(parallel.warm.workers, 1) << "seed " << seed;
    EXPECT_EQ(serial.warm.workers, 1) << "seed " << seed;

    // And the run itself is reproducible.
    const MipResult again = solveMip(m, po);
    EXPECT_EQ(again.nodesExplored, parallel.nodesExplored) << "seed " << seed;
    EXPECT_EQ(again.objective, parallel.objective) << "seed " << seed;
  }
}

/// The granularity-bucketed path (integral objectives) through the sharded
/// pool: fig8 2-PARTITION NO-instances have optimum 4m + 4, proven.
TEST(ParallelBranchBound, ReductionFamilyProvenAcrossWorkerCounts) {
  std::vector<Requests> values(5, 4);
  values.push_back(6);  // m = 6
  const ProblemInstance inst = fig8TwoPartition(values);
  const ExactIlpResult serial = solveExactViaIlp(inst, Policy::Multiple);
  ASSERT_TRUE(serial.proven);
  ASSERT_TRUE(serial.feasible());
  EXPECT_DOUBLE_EQ(serial.cost, 4.0 * 6 + 4);
  for (const int workers : {1, 2, 4, 8}) {
    ExactIlpOptions po;
    po.mip.workers = workers;
    const ExactIlpResult parallel = solveExactViaIlp(inst, Policy::Multiple, po);
    ASSERT_TRUE(parallel.proven) << "workers " << workers;
    ASSERT_TRUE(parallel.feasible()) << "workers " << workers;
    EXPECT_DOUBLE_EQ(parallel.cost, serial.cost) << "workers " << workers;
    EXPECT_EQ(parallel.warm.workers, workers);
  }
}

/// Infeasible and unbounded models take the abort paths cleanly.
TEST(ParallelBranchBound, InfeasibleAndUnboundedModels) {
  Model infeasible;
  const int x = infeasible.addVariable(0.0, 4.0, 1.0, VarType::Integer);
  infeasible.addConstraint(Sense::GreaterEqual, 10.0, std::vector<Term>{t(x, 1.0)});
  for (const int workers : {1, 4}) {
    MipOptions po;
    po.workers = workers;
    const MipResult r = solveMip(infeasible, po);
    EXPECT_EQ(r.status, SolveStatus::Infeasible) << "workers " << workers;
    EXPECT_TRUE(r.proven) << "workers " << workers;
    EXPECT_FALSE(r.hasIncumbent()) << "workers " << workers;
  }

  Model unbounded;
  const int y = unbounded.addVariable(0.0, kInfinity, -1.0, VarType::Integer);
  unbounded.addConstraint(Sense::GreaterEqual, 1.0, std::vector<Term>{t(y, 1.0)});
  for (const int workers : {1, 4}) {
    MipOptions po;
    po.workers = workers;
    const MipResult r = solveMip(unbounded, po);
    EXPECT_EQ(r.status, SolveStatus::Unbounded) << "workers " << workers;
  }
}

}  // namespace
}  // namespace treeplace::lp
