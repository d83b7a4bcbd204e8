#pragma once

#include <string_view>
#include <vector>

#include "lp/model.hpp"

namespace treeplace {
class BudgetGuard;
}

namespace treeplace::lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
};

std::string_view toString(SolveStatus status);

struct SimplexOptions {
  double pivotTol = 1e-9;    ///< entries below this are treated as zero
  double feasTol = 1e-7;     ///< phase-1 objective above this means infeasible
  long maxIterations = 200000;
  long stallLimit = 256;     ///< degenerate pivots before switching to Bland's rule
  /// Refactorize the basis once the eta file holds this many product-form
  /// updates.
  int refactorEtaLimit = 64;
  /// Refactorize once the eta-file entry count exceeds this multiple of the
  /// current LU fill (guards against dense spike columns bloating every
  /// subsequent ftran/btran).
  double refactorGrowthLimit = 3.0;
  /// Optional shared budget: every pivot loop ticks it and bails out with
  /// SolveStatus::IterationLimit when it trips, which callers already treat
  /// as a sound "stop without a proof" signal (B&B keeps the inherited bound
  /// and marks the node unproven). Non-owning; must outlive the solve.
  BudgetGuard* guard = nullptr;
};

struct LpSolution {
  SolveStatus status = SolveStatus::Infeasible;
  double objective = 0.0;
  std::vector<double> values;  ///< per model variable; filled only when Optimal

  bool optimal() const { return status == SolveStatus::Optimal; }
};

/// Solve the continuous relaxation of `model` (integrality ignored) with a
/// two-phase primal sparse LU revised simplex. Handles general bounds:
/// variables are shifted by finite lower bounds, mirrored when only the
/// upper bound is finite, and split into positive parts when free; finite
/// ranges stay out of the basis as column boxes handled in the ratio tests
/// (bound-flip pivots).
LpSolution solveLp(const Model& model, const SimplexOptions& options = {});

}  // namespace treeplace::lp
