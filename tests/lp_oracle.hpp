#pragma once

// Independent reference solvers for the LP/MIP equivalence tests: a textbook
// dense two-phase simplex and a plain best-first branch-and-bound over it.
// They share no code with lp/workspace or lp/branch_bound — no column boxes,
// no warm starts, no sparse factorization — so an agreement between the two
// stacks is evidence, not a tautology. Small models only: every pivot sweeps
// the whole tableau.

#include <optional>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "core/policy.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "tree/problem.hpp"

namespace treeplace::lp::oracle {

/// Solve the continuous relaxation of `model` under the boxes
/// [lower, upper] (one entry per variable). Every finite range becomes its
/// own tableau row, every row gets an artificial, phase 1 minimises their
/// sum, and both phases pivot by Bland's rule (lowest eligible index enters,
/// ties in the ratio test leave by lowest basic index), so the method
/// terminates without any stall detection.
LpSolution solveLp(const Model& model, std::span<const double> lower,
                   std::span<const double> upper);

/// solveLp() under the model's own bounds.
LpSolution solveLp(const Model& model);

struct MipSolution {
  SolveStatus status = SolveStatus::Infeasible;
  bool proven = false;           ///< the open-node queue ran empty
  double objective = kInfinity;  ///< incumbent objective
  std::vector<double> values;    ///< incumbent point; empty if none
  long nodesExplored = 0;

  bool hasIncumbent() const { return !values.empty(); }
};

/// Best-first branch-and-bound over solveLp(): every node carries its own
/// full bound vectors and re-solves from scratch; it branches on the first
/// fractional integer variable. Unbounded at any node makes the whole
/// answer Unbounded. Minimisation.
MipSolution solveMip(const Model& model, long maxNodes = 200000);

struct IlpSolution {
  bool proven = false;
  double cost = 0.0;  ///< storage cost of `placement` when present
  std::optional<Placement> placement;

  bool feasible() const { return placement.has_value(); }
};

/// The Section 5 ILP of `instance` under `policy` with exact integrality and
/// QoS/bandwidth enforced (solveExactViaIlp's defaults, minus its cuts and
/// search strategy), solved by the oracle branch-and-bound and decoded.
IlpSolution solveIlp(const ProblemInstance& instance, Policy policy);

}  // namespace treeplace::lp::oracle
