#include "exact/exact_ilp.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/bounds.hpp"
#include "formulation/ilp.hpp"
#include "support/require.hpp"

namespace treeplace {

ExactIlpResult solveFormulation(const ProblemInstance& instance,
                                const IlpFormulation& formulation, lp::MipOptions mo,
                                bool roundCosts) {
  // Branch the placement indicators before the assignment variables: fixing
  // an x decides a whole server, after which the y's mostly come out
  // integral on their own.
  if (mo.branchPriority.empty()) {
    mo.branchPriority.assign(
        static_cast<std::size_t>(formulation.model().variableCount()), 0);
    for (const VertexId j : instance.tree.internals())
      mo.branchPriority[static_cast<std::size_t>(formulation.placementVar(j))] = 1;
  }
  if (roundCosts && mo.objectiveGranularity == 0.0 && integralStorageCosts(instance))
    mo.objectiveGranularity = 1.0;

  const lp::MipResult mip = lp::solveMip(formulation.model(), mo);
  ExactIlpResult result;
  result.nodesExplored = mip.nodesExplored;
  result.proven = mip.proven;
  result.warm = mip.warm;
  result.lpMillis = mip.lpMillis;
  result.lowerBound = mip.lowerBound;
  result.stopReason = mip.stopReason;
  if (mip.hasIncumbent()) {
    result.placement = formulation.decode(mip.values);
    result.cost = result.placement->storageCost(instance);
  }
  return result;
}

ExactIlpResult solveExactViaIlp(const ProblemInstance& instance, Policy policy,
                                const ExactIlpOptions& options) {
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Exact;
  fo.enforceQos = options.enforceQos;
  fo.enforceBandwidth = options.enforceBandwidth;
  IlpFormulation formulation(instance, policy, fo);

  lp::MipOptions mo = options.mip;
  if (mo.maxNodes == 100000 && formulation.model().variableCount() > 2000)
    mo.maxNodes = 20000;  // guard rail for accidentally large exact solves

  if (options.symmetryCuts) formulation.addSymmetryCuts();

  if (options.frontierCuts) {
    std::optional<FrontierSubtreeRelaxation> relaxation;
    if (options.boundsArena)
      relaxation.emplace(instance, *options.boundsArena);
    else
      relaxation.emplace(instance);
    if (!relaxation->feasible()) {
      // Even the per-subtree relaxation cannot serve every request; QoS or
      // bandwidth only restrict further, so the ILP is infeasible.
      ExactIlpResult result;
      result.proven = true;
      result.lowerBound = lp::kInfinity;
      return result;
    }
    formulation.addFrontierCuts(*relaxation);
    mo.knownLowerBound =
        std::max(mo.knownLowerBound, relaxation->decompositionBound());
  }
  return solveFormulation(instance, formulation, std::move(mo), options.frontierCuts);
}

}  // namespace treeplace
