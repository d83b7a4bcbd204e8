// The bounded-variable simplex (finite ranges as column boxes handled in the
// ratio tests) against the explicit-upper-bound-row layout of the textbook
// tableau in tests/lp_oracle, the independent oracle.
#include "lp/workspace.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/bounds.hpp"
#include "exact/exact_ilp.hpp"
#include "formulation/ilp.hpp"
#include "lp/branch_bound.hpp"
#include "lp_oracle.hpp"
#include "support/prng.hpp"
#include "test_util.hpp"
#include "tree/generator.hpp"

namespace treeplace::lp {
namespace {

Term t(int var, double coefficient) { return {var, coefficient}; }

/// Random LP over boxed variables with mixed row senses; feasibility not
/// guaranteed. Some variables get one-sided or free ranges so every VarMap
/// mode is exercised.
Model randomBoxedLp(Prng& rng, int vars, int rows) {
  Model m;
  for (int j = 0; j < vars; ++j) {
    const int shape = static_cast<int>(rng.uniformInt(0, 9));
    if (shape == 0)
      m.addVariable(0.0, kInfinity, rng.uniformReal(-5.0, 5.0));  // no box
    else if (shape == 1)
      m.addVariable(-kInfinity, rng.uniformReal(0.0, 8.0),
                    rng.uniformReal(-5.0, 5.0));  // mirrored
    else
      m.addVariable(0.0, rng.uniformReal(0.5, 10.0), rng.uniformReal(-5.0, 5.0));
  }
  for (int r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    for (int j = 0; j < vars; ++j)
      terms.push_back(t(j, rng.uniformReal(-2.0, 4.0)));
    const double rhs = rng.uniformReal(2.0, 30.0);
    const Sense sense = r % 3 == 0   ? Sense::GreaterEqual
                        : r % 3 == 1 ? Sense::LessEqual
                                     : Sense::Equal;
    m.addConstraint(sense, rhs, terms);
  }
  return m;
}

/// 100+ random LPs: the box layout and the explicit-row oracle must agree on
/// status and optimum.
TEST(BoundedSimplex, MatchesExplicitRowOracleOnRandomLps) {
  int optimalPairs = 0;
  for (std::uint64_t seed = 1; seed <= 120; ++seed) {
    Prng rng(seed);
    const Model m = randomBoxedLp(rng, 6, 4);

    const LpSolution viaBoxes = solveLp(m);
    const LpSolution viaRows = oracle::solveLp(m);

    ASSERT_EQ(viaBoxes.status, viaRows.status) << "seed " << seed;
    if (viaBoxes.status != SolveStatus::Optimal) continue;
    ++optimalPairs;
    EXPECT_NEAR(viaBoxes.objective, viaRows.objective, 1e-6) << "seed " << seed;
    for (int j = 0; j < m.variableCount(); ++j) {
      EXPECT_GE(viaBoxes.values[static_cast<std::size_t>(j)], m.lower(j) - 1e-7)
          << "seed " << seed;
      EXPECT_LE(viaBoxes.values[static_cast<std::size_t>(j)], m.upper(j) + 1e-7)
          << "seed " << seed;
    }
  }
  EXPECT_GT(optimalPairs, 40) << "random family degenerated";
}

/// Warm dual re-solves of the box layout against cold explicit-row solves of
/// the same perturbed model — both representations AND both solve paths.
TEST(BoundedSimplex, WarmBoxResolveMatchesExplicitRowColdSolve) {
  int optimalResolves = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Prng rng(seed * 131);
    Model m;
    const int vars = 5;
    for (int j = 0; j < vars; ++j)
      m.addVariable(0.0, 10.0, rng.uniformReal(-5.0, 5.0));
    for (int r = 0; r < 4; ++r) {
      std::vector<Term> terms;
      for (int j = 0; j < vars; ++j)
        terms.push_back(t(j, rng.uniformReal(-2.0, 4.0)));
      const Sense sense = r % 3 == 0   ? Sense::GreaterEqual
                          : r % 3 == 1 ? Sense::LessEqual
                                       : Sense::Equal;
      m.addConstraint(sense, rng.uniformReal(2.0, 30.0), terms);
    }

    LpWorkspace workspace(m, {});
    EXPECT_EQ(workspace.structuralRows(), m.constraintCount());
    if (workspace.solveCold() != SolveStatus::Optimal) continue;

    std::vector<double> lo(vars, 0.0), hi(vars, 10.0);
    for (int trial = 0; trial < 12; ++trial) {
      const int v = static_cast<int>(rng.uniformInt(0, vars - 1));
      double a = rng.uniformReal(0.0, 10.0);
      double b = rng.uniformReal(0.0, 10.0);
      if (a > b) std::swap(a, b);
      lo[static_cast<std::size_t>(v)] = a;
      hi[static_cast<std::size_t>(v)] = b;
      workspace.setBounds(v, a, b);

      ASSERT_TRUE(workspace.warmReady());
      SolveStatus warm = workspace.solveDual();
      if (warm == SolveStatus::IterationLimit) warm = workspace.solveCold();

      Model reference = m;
      for (int j = 0; j < vars; ++j)
        reference.setBounds(j, lo[static_cast<std::size_t>(j)],
                            hi[static_cast<std::size_t>(j)]);
      const LpSolution fresh = oracle::solveLp(reference);

      ASSERT_EQ(warm, fresh.status) << "seed " << seed << " trial " << trial;
      if (warm != SolveStatus::Optimal) continue;
      ++optimalResolves;
      EXPECT_NEAR(workspace.objective(), fresh.objective, 1e-6)
          << "seed " << seed << " trial " << trial;
      for (int j = 0; j < vars; ++j) {
        EXPECT_GE(workspace.values()[static_cast<std::size_t>(j)],
                  lo[static_cast<std::size_t>(j)] - 1e-7);
        EXPECT_LE(workspace.values()[static_cast<std::size_t>(j)],
                  hi[static_cast<std::size_t>(j)] + 1e-7);
      }
    }
  }
  EXPECT_GE(optimalResolves, 100) << "perturbation family degenerated";
}

/// A non-binding row over boxed variables with tied reduced costs: every
/// entering column hits its own bound before any basic blocks, so the cold
/// solve must reach the optimum through bound flips alone.
TEST(BoundedSimplex, DegenerateTiesResolveThroughBoundFlips) {
  Model m;
  const int n = 6;
  for (int j = 0; j < n; ++j) m.addVariable(0.0, 1.0, -1.0);  // tied costs
  std::vector<Term> row;
  for (int j = 0; j < n; ++j) row.push_back(t(j, 1.0));
  m.addConstraint(Sense::LessEqual, static_cast<double>(n) + 3.0, row);

  LpWorkspace workspace(m, {});
  ASSERT_EQ(workspace.solveCold(), SolveStatus::Optimal);
  EXPECT_NEAR(workspace.objective(), -static_cast<double>(n), 1e-9);
  EXPECT_GE(workspace.stats().boundFlips, static_cast<long>(n));
  EXPECT_EQ(workspace.stats().primalIterations, 0);
  for (int j = 0; j < n; ++j)
    EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(j)], 1.0, 1e-9);
}

/// Squeezing the box of a basic variable below its value forces the dual
/// path; the bound-flipping ratio test may then park tied columns at their
/// opposite bound without a pivot.
TEST(BoundedSimplex, DualResolveHandlesShrunkBoxes) {
  Model m;
  const int x1 = m.addVariable(0.0, 5.0, -1.0);
  const int x2 = m.addVariable(0.0, 5.0, -2.0);
  m.addConstraint(Sense::LessEqual, 8.0, std::vector<Term>{t(x1, 1.0), t(x2, 1.0)});

  LpWorkspace workspace(m, {});
  ASSERT_EQ(workspace.solveCold(), SolveStatus::Optimal);
  EXPECT_NEAR(workspace.objective(), -13.0, 1e-9);  // x2 = 5, x1 = 3

  workspace.setBounds(x1, 0.0, 1.0);  // x1 basic at 3: now out of its box
  ASSERT_TRUE(workspace.warmReady());
  SolveStatus st = workspace.solveDual();
  if (st == SolveStatus::IterationLimit) st = workspace.solveCold();
  ASSERT_EQ(st, SolveStatus::Optimal);
  EXPECT_NEAR(workspace.objective(), -11.0, 1e-9);  // x2 = 5, x1 = 1
  EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(x1)], 1.0, 1e-9);
  EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(x2)], 5.0, 1e-9);

  // Re-grow the box: the warm basis absorbs the relaxation too.
  workspace.setBounds(x1, 0.0, 4.0);
  st = workspace.solveDual();
  if (st == SolveStatus::IterationLimit) st = workspace.solveCold();
  ASSERT_EQ(st, SolveStatus::Optimal);
  EXPECT_NEAR(workspace.objective(), -13.0, 1e-9);
}

/// A fixed box ([c, c]) is a width-zero column: it must be representable and
/// must pin the variable exactly — in the workspace and in the oracle's
/// zero-rhs bound row alike.
TEST(BoundedSimplex, ZeroWidthBoxesPinVariables) {
  Model m;
  const int x = m.addVariable(0.0, 6.0, 1.0);
  const int y = m.addVariable(0.0, 6.0, 2.0);
  m.addConstraint(Sense::GreaterEqual, 5.0,
                  std::vector<Term>{t(x, 1.0), t(y, 1.0)});
  LpWorkspace workspace(m, {});
  ASSERT_EQ(workspace.solveCold(), SolveStatus::Optimal);
  workspace.setBounds(x, 2.0, 2.0);
  SolveStatus st = workspace.solveDual();
  if (st == SolveStatus::IterationLimit) st = workspace.solveCold();
  ASSERT_EQ(st, SolveStatus::Optimal);
  EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(workspace.values()[static_cast<std::size_t>(y)], 3.0, 1e-9);
  EXPECT_NEAR(workspace.objective(), 8.0, 1e-9);

  m.setBounds(x, 2.0, 2.0);
  const LpSolution viaRows = oracle::solveLp(m);
  ASSERT_EQ(viaRows.status, SolveStatus::Optimal);
  EXPECT_NEAR(viaRows.values[static_cast<std::size_t>(x)], 2.0, 1e-9);
  EXPECT_NEAR(viaRows.values[static_cast<std::size_t>(y)], 3.0, 1e-9);
  EXPECT_NEAR(viaRows.objective, 8.0, 1e-9);
}

/// Branch-and-bound with the box layout against the explicit-row oracle on
/// 100 random MIPs: same optima, same proven flags.
TEST(BoundedSimplex, MipMatchesExplicitRowOracle) {
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    Prng rng(seed * 37);
    Model m;
    const int n = 8;
    for (int j = 0; j < n; ++j)
      m.addVariable(0.0, static_cast<double>(rng.uniformInt(1, 3)),
                    -static_cast<double>(rng.uniformInt(1, 30)), VarType::Integer);
    std::vector<Term> row;
    for (int j = 0; j < n; ++j)
      row.push_back(t(j, static_cast<double>(rng.uniformInt(1, 12))));
    m.addConstraint(Sense::LessEqual, static_cast<double>(rng.uniformInt(10, 40)),
                    row);

    const MipResult boxes = solveMip(m);
    const oracle::MipSolution rows = oracle::solveMip(m);

    ASSERT_EQ(boxes.status, rows.status) << "seed " << seed;
    ASSERT_EQ(boxes.proven, rows.proven) << "seed " << seed;
    ASSERT_EQ(boxes.hasIncumbent(), rows.hasIncumbent()) << "seed " << seed;
    if (!boxes.hasIncumbent()) continue;
    EXPECT_NEAR(boxes.objective, rows.objective, 1e-9) << "seed " << seed;
  }
}

/// End to end on the Section 5 ILP: the real solver stack (cuts, symmetry
/// orderings, warm starts all active) vs the explicit-row oracle on the bare
/// formulation.
TEST(BoundedSimplex, ExactIlpMatchesExplicitRowOracleOnRandomInstances) {
  int compared = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const ProblemInstance inst = testutil::smallRandomInstance(
        seed * 271, 0.6, /*heterogeneous=*/seed % 2 == 1, /*unitCosts=*/seed % 2 == 0,
        /*minSize=*/6, /*maxSize=*/12);
    const Policy policy = seed % 2 == 0 ? Policy::Multiple : Policy::Upwards;

    const ExactIlpResult boxes = solveExactViaIlp(inst, policy);
    const oracle::IlpSolution rows = oracle::solveIlp(inst, policy);

    ASSERT_EQ(boxes.proven, rows.proven) << "seed " << seed;
    ASSERT_EQ(boxes.feasible(), rows.feasible()) << "seed " << seed;
    ++compared;
    if (!boxes.feasible()) continue;
    EXPECT_NEAR(boxes.cost, rows.cost, 1e-9) << "seed " << seed;
    EXPECT_TRUE(testutil::placementValid(inst, *boxes.placement, policy))
        << "seed " << seed;
  }
  EXPECT_GE(compared, 30);
}

/// Cuts-heavy QoS model: frontier cuts add structural rows, but the tableau
/// height must track the model's constraint count exactly — the per-range
/// upper-bound rows that used to amplify every added cut are gone.
TEST(BoundedSimplex, CutRowsNoLongerAmplifiedByRanges) {
  const ProblemInstance inst = [] {
    GeneratorConfig config;
    config.minSize = 18;
    config.maxSize = 24;
    config.lambda = 0.6;
    config.maxChildren = 2;
    config.unitCosts = true;
    config.qosFraction = 0.5;
    config.qosMinHops = 2;
    config.qosMaxHops = 4;
    Prng rng(4242);
    return generateInstance(config, rng);
  }();

  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Exact;
  IlpFormulation bare(inst, Policy::Multiple, fo);
  IlpFormulation strengthened(inst, Policy::Multiple, fo);
  const FrontierSubtreeRelaxation relaxation(inst);
  ASSERT_TRUE(relaxation.feasible());
  const int cutRows = strengthened.addFrontierCuts(relaxation);
  const int orderRows = strengthened.addSymmetryCuts();

  const LpWorkspace bareWs(bare.model());
  const LpWorkspace cutWs(strengthened.model());
  // Box layout: every basis row is a model row, before and after cuts.
  EXPECT_EQ(bareWs.structuralRows(), bare.model().constraintCount());
  EXPECT_EQ(cutWs.structuralRows(), strengthened.model().constraintCount());
  EXPECT_EQ(cutWs.structuralRows() - bareWs.structuralRows(), cutRows + orderRows);
}

}  // namespace
}  // namespace treeplace::lp
