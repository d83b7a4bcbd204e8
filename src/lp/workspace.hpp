#pragma once

#include <algorithm>
#include <span>
#include <vector>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "lp/sparse_basis.hpp"

namespace treeplace::lp {

/// Telemetry of a warm-started solve sequence (one branch-and-bound run, or
/// any caller that re-solves the same matrix under changing bounds).
struct WarmStartStats {
  long coldSolves = 0;        ///< two-phase primal solves from scratch
  long warmSolves = 0;        ///< dual-simplex re-solves from a reused basis
  long warmAlreadyOptimal = 0;///< warm solves that needed zero dual pivots
  long dualFallbacks = 0;     ///< warm attempts that had to re-run cold
  long primalIterations = 0;  ///< pivots spent in cold (phase 1 + 2) solves
  long dualIterations = 0;    ///< pivots spent in dual re-solves
  long boundFlips = 0;        ///< box pivots that touched no basis column
  // Basis factorization telemetry.
  long refactorizations = 0;  ///< basis refactorizations forced by eta growth
  long etaCount = 0;          ///< product-form eta columns appended per pivot
  long basisNnz = 0;          ///< peak L+U fill of the factorized basis
  int structuralRows = 0;     ///< basis height: one row per model constraint
  // Worker-pool telemetry (filled by the branch-and-bound engine).
  int workers = 0;            ///< B&B workers that ran (1 = inline search)
  long stealCount = 0;        ///< nodes claimed from a foreign shard
  double idleMs = 0.0;        ///< summed worker wall time spent waiting for work

  long totalSolves() const { return coldSolves + warmSolves; }
  /// Fraction of node LPs served by a reused basis instead of a cold build.
  double basisReuseRate() const {
    const long total = totalSolves();
    return total > 0 ? static_cast<double>(warmSolves) / static_cast<double>(total)
                     : 0.0;
  }
  /// Fold another worker's counters into this one (solve counters and pivot
  /// counts add up; the row count is shared, so it is kept, not summed).
  void merge(const WarmStartStats& other) {
    coldSolves += other.coldSolves;
    warmSolves += other.warmSolves;
    warmAlreadyOptimal += other.warmAlreadyOptimal;
    dualFallbacks += other.dualFallbacks;
    primalIterations += other.primalIterations;
    dualIterations += other.dualIterations;
    boundFlips += other.boundFlips;
    refactorizations += other.refactorizations;
    etaCount += other.etaCount;
    basisNnz = std::max(basisNnz, other.basisNnz);
    structuralRows = std::max(structuralRows, other.structuralRows);
    stealCount += other.stealCount;
    idleMs += other.idleMs;
  }

  /// Names each field once, as f(json_key, value) in JSON key order; the
  /// bench writers (writeFields, bench::renderFields) read this list.
  template <class F>
  void forEachField(F&& f) const {
    f("warm_solves", warmSolves);
    f("cold_solves", coldSolves);
    f("basis_reuse_rate", basisReuseRate());
    f("warm_already_optimal", warmAlreadyOptimal);
    f("primal_iterations", primalIterations);
    f("dual_iterations", dualIterations);
    f("dual_fallbacks", dualFallbacks);
    f("bound_flips", boundFlips);
    f("refactorizations", refactorizations);
    f("eta_count", etaCount);
    f("basis_nnz", basisNnz);
    f("structural_rows", structuralRows);
    f("workers", workers);
    f("steal_count", stealCount);
    f("idle_ms", idleMs);
  }
};

/// Persistent simplex workspace for repeated solves of one model under
/// changing variable bounds — the branch-and-bound hot path.
///
/// The standard form (column layout, slack/artificial structure, constraint
/// matrix) is built ONCE from the root model and the tableau holds exactly
/// one row per model constraint: finite variable ranges never materialise as
/// rows. Each structural column instead carries a box [0, width], nonbasic
/// columns rest at either end of it (at-lower / at-upper), and both ratio
/// tests respect the boxes — when a column's own width is the binding limit
/// the step degenerates to a bound flip that moves no basis column at all.
/// Per-node bound changes therefore only move offsets and box widths: a
/// re-solve recomputes the transformed rhs through the basis inverse,
/// subtracts the at-upper column contributions, and runs the bounded dual
/// simplex from the parent basis, which stays dual-feasible because costs
/// never change. Typical B&B children re-optimise in a handful of dual
/// pivots or pure bound flips instead of a full two-phase primal solve.
///
/// The basis inverse lives in a SparseLu factorization with product-form
/// eta updates (lp/sparse_basis): the constraint matrix is kept in CSC form
/// and row-wise, every pivot appends one eta column, and ftran/btran replace
/// dense tableau sweeps. A warm dual pivot prices the pivot row from the
/// nonzeros of rho = B^-T e_r, so it costs what rho's rows hold rather than
/// O(nnz) or O(rows^2). The independent reference it is tested against is
/// the textbook dense tableau in tests/lp_oracle.
///
/// Patches are tracked, so a re-solve's setup costs what changed: setBounds
/// and setRhs list the variables and rows they touch, and the next solve
/// pushes only those variables' box widths into the engine and recomputes
/// only the rhs rows they reach (each row in full, so the value is the one a
/// full recompute would give). A variable whose bounds came back to the
/// values of the last solve, as a branch-and-bound undo and redo leaves
/// them, moves nothing.
///
/// Restrictions: a variable mapped by its finite lower bound (Shift) must
/// keep a finite lower bound in every box, one mapped by its upper (Mirror)
/// a finite upper, and a free variable cannot be tightened at all.
class LpWorkspace {
 public:
  explicit LpWorkspace(const Model& model, const SimplexOptions& options = {});

  /// Value copy of this workspace with fresh telemetry: the standard form,
  /// current boxes, and any valid basis are duplicated, so a worker thread
  /// gets the root model parse for the price of a memcpy. The clone is fully
  /// independent — per-worker memory stays bounded by the tableau height.
  LpWorkspace clone() const {
    LpWorkspace copy(*this);
    copy.resetStats();
    return copy;
  }

  /// Zero the solve counters while keeping the row count, so a recycled
  /// workspace reports only its next run.
  void resetStats() {
    stats_ = {};
    stats_.structuralRows = modelRows_;
  }

  int variableCount() const { return static_cast<int>(varMap_.size()); }

  /// Basis height: one row per model constraint — finite ranges live as
  /// column boxes, never as rows.
  int structuralRows() const { return modelRows_; }

  /// Set the box of `variable` for the next solve (model space).
  void setBounds(int variable, double lower, double upper);

  /// Replace the right-hand side of model constraint `row` for the next
  /// solve. The transformed rhs is recomputed from baseRhs_ through the basis
  /// inverse on every solve, and costs are untouched, so a warm basis stays
  /// dual-feasible: rhs deltas re-optimise in a few dual pivots exactly like
  /// bound changes. This is what lets the online layer patch demand changes
  /// into a live workspace instead of rebuilding the standard form.
  void setRhs(int row, double rhs) {
    baseRhs_.at(static_cast<std::size_t>(row)) = rhs;
    markRow(row);
  }

  /// Re-align every box and rhs with `model`, which must be the model this
  /// workspace was built from (same rows/columns; only bounds and rhs may
  /// have changed — matrix coefficients and objective are fixed at build).
  /// Any valid basis survives: see setRhs()/setBounds(). The warm MIP driver
  /// calls this at entry when reusing a caller-owned workspace across solves.
  void syncFromModel(const Model& model);

  double currentLower(int variable) const {
    return curLower_[static_cast<std::size_t>(variable)];
  }
  double currentUpper(int variable) const {
    return curUpper_[static_cast<std::size_t>(variable)];
  }

  /// A previous solve left an optimal (dual-feasible) basis to warm-start
  /// from.
  bool warmReady() const { return basisValid_; }

  /// Two-phase primal simplex from scratch under the current bounds.
  ///
  /// Every solve takes an optional shared budget: each pivot ticks it and
  /// the solve bails out with SolveStatus::IterationLimit when it trips,
  /// which callers already treat as a sound "stop without a proof" signal
  /// (B&B keeps the inherited bound and marks the node unproven).
  /// Non-owning; must outlive the solve.
  SolveStatus solveCold(BudgetGuard* guard = nullptr);

  /// Dual-simplex re-solve from the last optimal basis under the current
  /// bounds. Requires warmReady(). Returns IterationLimit on numerical
  /// trouble — the caller should fall back to solveCold().
  SolveStatus solveDual(BudgetGuard* guard = nullptr);

  /// solveDual() when a basis is available (falling back to solveCold() on
  /// numerical failure), else solveCold().
  SolveStatus solve(BudgetGuard* guard = nullptr);

  /// Objective and point of the last Optimal solve, in model space.
  double objective() const { return objective_; }
  std::span<const double> values() const { return values_; }

  const WarmStartStats& stats() const { return stats_; }

 private:
  /// How a model variable maps onto non-negative structural columns.
  struct VarMap {
    enum class Mode { Shift, Mirror, Split } mode = Mode::Shift;
    int column = -1;     ///< primary structural column
    int negColumn = -1;  ///< second column for Split
  };

  void markRow(int row) {
    if (rowDirty_[static_cast<std::size_t>(row)]) return;
    rowDirty_[static_cast<std::size_t>(row)] = 1;
    dirtyRows_.push_back(row);
  }
  /// Model-space rhs of `row` under the current bound offsets.
  double rowRhs(int row) const;
  /// Push the patches since the last solve: box widths of the changed
  /// variables into the engine, and the rhs of the rows they reach.
  void flushPatches();
  void extract();

  // ---- fixed standard form (built once from the root model) ----
  std::vector<VarMap> varMap_;
  std::vector<double> objCoef_;         ///< model-space objective
  int nStruct_ = 0;
  int modelRows_ = 0;                   ///< model constraints = basis rows
  // CSR offset terms per row: rhs -= coeff * currentOffset(var).
  std::vector<int> offsetStart_;
  std::vector<int> offsetVar_;
  std::vector<double> offsetCoef_;
  std::vector<double> baseRhs_;         ///< model rhs per model row
  // The same offset terms per variable (CSC): the rows whose rhs reads it.
  std::vector<int> varRowStart_, varRow_;

  // ---- per-solve state ----
  std::vector<double> curLower_, curUpper_;
  /// Bounds as of the last flush; NaN until the first.
  std::vector<double> flushedLower_, flushedUpper_;
  // Patched since the last flush: every setBounds call (a repeat finds its
  // bounds already flushed) and each row once.
  std::vector<int> dirtyVars_, dirtyRows_;
  std::vector<char> rowDirty_;
  std::vector<double> rhs_;             ///< transformed rhs per model row
  std::vector<double> structValues_;
  SparseSimplex sparse_;  ///< the engine (vectors only, so clone() copies)
  bool basisValid_ = false;

  double objective_ = 0.0;
  std::vector<double> values_;
  WarmStartStats stats_;
};

}  // namespace treeplace::lp
