#pragma once

#include <string_view>
#include <vector>

#include "lp/model.hpp"

namespace treeplace::lp {

enum class SolveStatus {
  Optimal,
  Infeasible,
  Unbounded,
  IterationLimit,
};

std::string_view toString(SolveStatus status);

struct SimplexOptions {
  /// Refactorize the basis once the eta file holds this many product-form
  /// updates. The other pivot-loop limits are constants (lp/tolerances).
  int refactorEtaLimit = 64;
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
