#pragma once

#include <iosfwd>
#include <string>

#include "experiments/runner.hpp"

namespace treeplace {

/// Render the Figure 9/11 series (percentage of trees with a solution per
/// heuristic, plus the LP feasibility line) as a fixed-width table.
std::string renderSuccessTable(const ExperimentResult& result);

/// Render the Figure 10/12 series (relative cost = LP bound / heuristic cost,
/// averaged over LP-feasible trees).
std::string renderRelativeCostTable(const ExperimentResult& result);

/// MixedBest composition: which heuristic provided MB's winning placement,
/// per lambda (the ablation the paper's Section 7.3 discusses in prose).
std::string renderMixedBestWinners(const ExperimentResult& result);

/// Dump both series in gnuplot-friendly CSV:
///   kind,lambda,<series...>   with kind in {success,rcost}.
void writeCsv(std::ostream& out, const ExperimentResult& result);

/// Dump both series as machine-readable JSON (one object per lambda with
/// success rates, relative costs and LP feasibility) so the perf/quality
/// trajectory can be tracked across PRs.
void writeJson(std::ostream& out, const ExperimentResult& result);

}  // namespace treeplace
