#include "formulation/lower_bound.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "core/bounds.hpp"
#include "formulation/ilp.hpp"

namespace treeplace {
namespace {

/// Round a bound up to the next integer when the objective is integral.
double tighten(const ProblemInstance& instance, double bound) {
  if (bound == -lp::kInfinity || bound == lp::kInfinity) return bound;
  if (integralStorageCosts(instance)) return std::ceil(bound - 1e-6);
  return bound;
}

}  // namespace

LowerBoundResult refinedLowerBound(const ProblemInstance& instance,
                                   const LowerBoundOptions& options) {
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::PlacementOnly;
  fo.enforceQos = options.enforceQos;
  fo.enforceBandwidth = options.enforceBandwidth;
  const IlpFormulation formulation(instance, Policy::Multiple, fo);

  lp::MipOptions mo;
  mo.maxNodes = options.maxNodes;
  mo.initialUpperBound = options.knownUpperBound;
  if (integralStorageCosts(instance)) mo.objectiveGranularity = 1.0;
  const lp::MipResult mip = lp::solveMip(formulation.model(), mo);

  LowerBoundResult result;
  result.nodesExplored = mip.nodesExplored;
  if (mip.status == lp::SolveStatus::Infeasible) {
    result.lpFeasible = false;
    result.bound = lp::kInfinity;
    result.exact = mip.proven;
    return result;
  }
  result.lpFeasible = true;
  // Never report below the combinatorial floors: the structure-free
  // fractional cover and the per-subtree frontier decomposition (both valid
  // for every policy, and the latter sees tree structure the LP relaxation
  // blurs). This also shields against a -infinity bound if the node budget
  // was exhausted at the root.
  std::optional<FrontierSubtreeRelaxation> frontier;
  if (options.boundsArena)
    frontier.emplace(instance, *options.boundsArena);
  else
    frontier.emplace(instance);
  result.frontierBound = frontier->decompositionBound();
  result.bound = tighten(
      instance, std::max({mip.lowerBound, fractionalCoverLowerBound(instance),
                          result.frontierBound}));
  result.exact = mip.proven;
  return result;
}

LowerBoundResult rationalLowerBound(const ProblemInstance& instance,
                                    const LowerBoundOptions& options) {
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Relaxed;
  fo.enforceQos = options.enforceQos;
  fo.enforceBandwidth = options.enforceBandwidth;
  const IlpFormulation formulation(instance, Policy::Multiple, fo);
  const lp::LpSolution lps = lp::solveLp(formulation.model());

  LowerBoundResult result;
  result.nodesExplored = 0;
  if (lps.status == lp::SolveStatus::Infeasible) {
    result.lpFeasible = false;
    result.bound = lp::kInfinity;
    result.exact = true;
    return result;
  }
  result.lpFeasible = lps.optimal();
  result.bound = lps.optimal() ? lps.objective : 0.0;
  result.exact = false;  // the rational bound is rarely attainable
  return result;
}

}  // namespace treeplace
