#pragma once

namespace treeplace::lp {

/// Shared numeric tolerances of the LP layer.
///
/// The primal and dual simplex paths must agree on these: a warm dual
/// re-solve is validated against a cold primal solve of the same model, and
/// a tie broken inside a different window on one side shows up as a spurious
/// objective or status mismatch under perturbed bounds. Every ratio-test
/// tie, objective-progress test and degeneracy/Bland switch therefore reads
/// the constants below instead of a local literal.

/// Two ratios within this window count as tied in the primal and dual ratio
/// tests; ties then fall through to the deterministic tie-break (smallest
/// basis index / steepest pivot coefficient).
inline constexpr double kRatioTieTol = 1e-12;

/// Minimum objective improvement (primal) or infeasibility reduction (dual)
/// per pivot that counts as progress for the degeneracy detector; once
/// kStallLimit consecutive pivots fall short, both paths switch to Bland's
/// rule.
inline constexpr double kProgressTol = 1e-12;
inline constexpr long kStallLimit = 256;

/// Pivot and LU entries below this magnitude are treated as zero.
inline constexpr double kPivotTol = 1e-9;

/// A phase-1 objective above this means infeasible; it is also the smallest
/// box violation the dual simplex treats as one.
inline constexpr double kFeasTol = 1e-7;

/// Pivots per primal phase or dual re-solve before giving up with
/// SolveStatus::IterationLimit.
inline constexpr long kMaxIterations = 200000;

/// Refactorize once the eta-file entry count exceeds this multiple of the
/// current LU fill (guards against dense spike columns bloating every
/// subsequent ftran/btran).
inline constexpr double kRefactorGrowthLimit = 3.0;

/// Branch-and-bound: an integer variable within this of an integer counts as
/// integral.
inline constexpr double kIntegralityTol = 1e-6;

/// Branch-and-bound prune/stop tolerance on the objective.
inline constexpr double kAbsoluteGap = 1e-6;

/// Slack used when rounding a dual bound up to the next objective-granularity
/// multiple (lp/branch_bound): ceil(bound / g - kGranularitySlack) * g keeps
/// bounds that are already multiples from being pushed a full step up by
/// round-off.
inline constexpr double kGranularitySlack = 1e-6;

}  // namespace treeplace::lp
