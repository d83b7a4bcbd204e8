#include "lp/workspace.hpp"

#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "support/fault_injection.hpp"
#include "support/require.hpp"

namespace treeplace::lp {

LpWorkspace::LpWorkspace(const Model& model, const SimplexOptions& options) {
  const int n = model.variableCount();
  varMap_.resize(static_cast<std::size_t>(n));
  curLower_.resize(static_cast<std::size_t>(n));
  curUpper_.resize(static_cast<std::size_t>(n));
  objCoef_.resize(static_cast<std::size_t>(n));
  values_.assign(static_cast<std::size_t>(n), 0.0);

  // Structural columns. Unlike a one-shot solve, the column layout is chosen
  // from the ROOT bounds and never changes: tightened boxes reach the solver
  // through offsets and column box widths only.
  std::vector<double> cost0;  // structural-column objective
  for (int j = 0; j < n; ++j) {
    VarMap& vm = varMap_[static_cast<std::size_t>(j)];
    const double lo = model.lower(j);
    const double hi = model.upper(j);
    const double c = model.objective(j);
    curLower_[static_cast<std::size_t>(j)] = lo;
    curUpper_[static_cast<std::size_t>(j)] = hi;
    objCoef_[static_cast<std::size_t>(j)] = c;
    if (lo != -kInfinity) {
      vm.mode = VarMap::Mode::Shift;  // x = lo + t, t >= 0
      vm.column = nStruct_++;
      cost0.push_back(c);
    } else if (hi != kInfinity) {
      vm.mode = VarMap::Mode::Mirror;  // x = hi - t, t >= 0
      vm.column = nStruct_++;
      cost0.push_back(-c);
    } else {
      vm.mode = VarMap::Mode::Split;  // x = t+ - t-
      vm.column = nStruct_++;
      vm.negColumn = nStruct_++;
      cost0.push_back(c);
      cost0.push_back(-c);
    }
  }

  // Model rows, rewritten over structural columns (CSR). The current-bound
  // offset contributions are kept symbolically (per-term variable ids) so
  // the rhs can be recomputed for any box without touching the matrix.
  // Finite ranges live as column boxes, so the basis height stays at the
  // model row count.
  modelRows_ = model.constraintCount();
  stats_.structuralRows = modelRows_;
  std::vector<int> rowStart{0};
  std::vector<int> termCol;
  std::vector<double> termCoef;
  offsetStart_.push_back(0);
  for (int r = 0; r < modelRows_; ++r) {
    for (const Term& t : model.rowTerms(r)) {
      const VarMap& vm = varMap_[static_cast<std::size_t>(t.variable)];
      switch (vm.mode) {
        case VarMap::Mode::Shift:
          termCol.push_back(vm.column);
          termCoef.push_back(t.coefficient);
          offsetVar_.push_back(t.variable);
          offsetCoef_.push_back(t.coefficient);
          break;
        case VarMap::Mode::Mirror:
          termCol.push_back(vm.column);
          termCoef.push_back(-t.coefficient);
          offsetVar_.push_back(t.variable);
          offsetCoef_.push_back(t.coefficient);
          break;
        case VarMap::Mode::Split:
          termCol.push_back(vm.column);
          termCoef.push_back(t.coefficient);
          termCol.push_back(vm.negColumn);
          termCoef.push_back(-t.coefficient);
          break;
      }
    }
    rowStart.push_back(static_cast<int>(termCol.size()));
    offsetStart_.push_back(static_cast<int>(offsetVar_.size()));
    baseRhs_.push_back(model.rowRhs(r));
  }

  // Column layout: structural | slack/surplus | one implicit artificial per
  // row (issued by cold starts only).
  int slackCount = 0;
  std::vector<int> slackCol(static_cast<std::size_t>(modelRows_), -1);  // -1: Equal
  std::vector<double> slackSign(static_cast<std::size_t>(modelRows_), 1.0);
  for (int r = 0; r < modelRows_; ++r) {
    const Sense sense = model.rowSense(r);
    slackSign[static_cast<std::size_t>(r)] = sense == Sense::LessEqual ? 1.0 : -1.0;
    if (sense != Sense::Equal)
      slackCol[static_cast<std::size_t>(r)] = nStruct_ + slackCount++;
  }
  const int artificialStart = nStruct_ + slackCount;

  // Transpose the CSR rows into a CSC column store over structural + slack
  // columns (duplicate terms stay as repeated entries — every consumer
  // accumulates). Artificial columns are implicit +-e_r.
  std::vector<int> colStart(static_cast<std::size_t>(artificialStart) + 1, 0);
  for (const int c : termCol) ++colStart[static_cast<std::size_t>(c) + 1];
  for (const int slack : slackCol)
    if (slack >= 0) ++colStart[static_cast<std::size_t>(slack) + 1];
  for (std::size_t j = 1; j < colStart.size(); ++j) colStart[j] += colStart[j - 1];
  std::vector<int> cursor(colStart.begin(), colStart.end() - 1);
  std::vector<int> rowIdx(static_cast<std::size_t>(colStart.back()));
  std::vector<double> colVal(rowIdx.size());
  for (int r = 0; r < modelRows_; ++r) {
    for (int k = rowStart[static_cast<std::size_t>(r)];
         k < rowStart[static_cast<std::size_t>(r) + 1]; ++k) {
      const int c = termCol[static_cast<std::size_t>(k)];
      const auto slot = static_cast<std::size_t>(cursor[static_cast<std::size_t>(c)]++);
      rowIdx[slot] = r;
      colVal[slot] = termCoef[static_cast<std::size_t>(k)];
    }
    const int slack = slackCol[static_cast<std::size_t>(r)];
    if (slack >= 0) {
      const auto slot = static_cast<std::size_t>(cursor[static_cast<std::size_t>(slack)]++);
      rowIdx[slot] = r;
      colVal[slot] = slackSign[static_cast<std::size_t>(r)];
    }
  }
  sparse_.build(modelRows_, nStruct_, artificialStart, std::move(colStart),
                std::move(rowIdx), std::move(colVal), std::move(cost0),
                std::move(slackCol), std::move(slackSign), options);

  varRowStart_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (const int v : offsetVar_) ++varRowStart_[static_cast<std::size_t>(v) + 1];
  for (std::size_t v = 1; v < varRowStart_.size(); ++v) varRowStart_[v] += varRowStart_[v - 1];
  std::vector<int> varCursor(varRowStart_.begin(), varRowStart_.end() - 1);
  varRow_.resize(offsetVar_.size());
  for (int r = 0; r < modelRows_; ++r)
    for (int k = offsetStart_[static_cast<std::size_t>(r)];
         k < offsetStart_[static_cast<std::size_t>(r) + 1]; ++k)
      varRow_[static_cast<std::size_t>(
          varCursor[static_cast<std::size_t>(offsetVar_[static_cast<std::size_t>(k)])]++)] = r;

  // Everything is patched before the first solve.
  flushedLower_.assign(static_cast<std::size_t>(n), std::numeric_limits<double>::quiet_NaN());
  flushedUpper_.assign(static_cast<std::size_t>(n), std::numeric_limits<double>::quiet_NaN());
  dirtyVars_.resize(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) dirtyVars_[static_cast<std::size_t>(j)] = j;
  rowDirty_.assign(static_cast<std::size_t>(modelRows_), 0);
  rhs_.assign(static_cast<std::size_t>(modelRows_), 0.0);
  for (int r = 0; r < modelRows_; ++r) markRow(r);
}

void LpWorkspace::setBounds(int variable, double lower, double upper) {
  TREEPLACE_REQUIRE(variable >= 0 && variable < variableCount(),
                    "workspace variable out of range");
  TREEPLACE_REQUIRE(lower <= upper, "workspace bounds crossed");
  const VarMap& vm = varMap_[static_cast<std::size_t>(variable)];
  switch (vm.mode) {
    case VarMap::Mode::Shift:
      TREEPLACE_REQUIRE(lower != -kInfinity,
                        "shifted variable requires a finite lower bound");
      break;
    case VarMap::Mode::Mirror:
      TREEPLACE_REQUIRE(upper != kInfinity,
                        "mirrored variable requires a finite upper bound");
      break;
    case VarMap::Mode::Split:
      TREEPLACE_REQUIRE(lower == -kInfinity && upper == kInfinity,
                        "free variable bounds cannot be tightened");
      break;
  }
  curLower_[static_cast<std::size_t>(variable)] = lower;
  curUpper_[static_cast<std::size_t>(variable)] = upper;
  dirtyVars_.push_back(variable);
}

void LpWorkspace::syncFromModel(const Model& model) {
  TREEPLACE_REQUIRE(model.variableCount() == variableCount(),
                    "syncFromModel: variable count changed — rebuild the workspace");
  TREEPLACE_REQUIRE(model.constraintCount() == modelRows_,
                    "syncFromModel: constraint count changed — rebuild the workspace");
  for (int r = 0; r < modelRows_; ++r) setRhs(r, model.rowRhs(r));
  for (int j = 0; j < variableCount(); ++j)
    setBounds(j, model.lower(j), model.upper(j));
}

double LpWorkspace::rowRhs(int row) const {
  double rhs = baseRhs_[static_cast<std::size_t>(row)];
  for (int k = offsetStart_[static_cast<std::size_t>(row)];
       k < offsetStart_[static_cast<std::size_t>(row) + 1]; ++k) {
    const int v = offsetVar_[static_cast<std::size_t>(k)];
    const VarMap& vm = varMap_[static_cast<std::size_t>(v)];
    const double offset = vm.mode == VarMap::Mode::Shift
                              ? curLower_[static_cast<std::size_t>(v)]
                              : curUpper_[static_cast<std::size_t>(v)];
    rhs -= offsetCoef_[static_cast<std::size_t>(k)] * offset;
  }
  return rhs;
}

void LpWorkspace::flushPatches() {
  const auto same = [](double a, double b) {
    return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
  };
  for (const int v : dirtyVars_) {
    const auto vi = static_cast<std::size_t>(v);
    const double lo = curLower_[vi];
    const double hi = curUpper_[vi];
    if (same(lo, flushedLower_[vi]) && same(hi, flushedUpper_[vi])) continue;
    flushedLower_[vi] = lo;
    flushedUpper_[vi] = hi;
    const VarMap& vm = varMap_[vi];
    if (vm.mode == VarMap::Mode::Split) continue;  // both columns unbounded
    // Shift and Mirror alike span [0, hi - lo] in column space (infinity-safe:
    // an open end keeps the column a classic non-negative one).
    sparse_.setWidth(vm.column, hi - lo);
    for (int k = varRowStart_[vi]; k < varRowStart_[vi + 1]; ++k)
      markRow(varRow_[static_cast<std::size_t>(k)]);
  }
  dirtyVars_.clear();
  for (const int r : dirtyRows_) {
    rowDirty_[static_cast<std::size_t>(r)] = 0;
    rhs_[static_cast<std::size_t>(r)] = rowRhs(r);
  }
  dirtyRows_.clear();
}

SolveStatus LpWorkspace::solveCold(BudgetGuard* guard) {
  ++stats_.coldSolves;
  basisValid_ = false;
  flushPatches();
  const SolveStatus st = sparse_.solveCold(rhs_, stats_, guard);
  if (st != SolveStatus::Optimal) return st;
  extract();
  basisValid_ = true;
  return SolveStatus::Optimal;
}

SolveStatus LpWorkspace::solveDual(BudgetGuard* guard) {
  TREEPLACE_REQUIRE(basisValid_, "solveDual requires a prior optimal basis");
  ++stats_.warmSolves;
  flushPatches();
  const SolveStatus st = sparse_.solveDual(rhs_, stats_, guard);
  basisValid_ = sparse_.ready();
  if (st == SolveStatus::Optimal) extract();
  return st;
}

SolveStatus LpWorkspace::solve(BudgetGuard* guard) {
  // SimplexPivot fault: pretend the warm dual re-solve hit numerical trouble
  // so the cold fallback path runs. Costs latency (a full two-phase solve),
  // never correctness.
  if (warmReady() && !fault::fire(fault::Site::SimplexPivot)) {
    const SolveStatus st = solveDual(guard);
    if (st != SolveStatus::IterationLimit) return st;
    ++stats_.dualFallbacks;
  }
  return solveCold(guard);
}

void LpWorkspace::extract() {
  sparse_.structuralValues(structValues_);
  objective_ = 0.0;
  for (int j = 0; j < variableCount(); ++j) {
    const VarMap& vm = varMap_[static_cast<std::size_t>(j)];
    double value = 0.0;
    switch (vm.mode) {
      case VarMap::Mode::Shift:
        value = curLower_[static_cast<std::size_t>(j)] +
                structValues_[static_cast<std::size_t>(vm.column)];
        break;
      case VarMap::Mode::Mirror:
        value = curUpper_[static_cast<std::size_t>(j)] -
                structValues_[static_cast<std::size_t>(vm.column)];
        break;
      case VarMap::Mode::Split:
        value = structValues_[static_cast<std::size_t>(vm.column)] -
                structValues_[static_cast<std::size_t>(vm.negColumn)];
        break;
    }
    values_[static_cast<std::size_t>(j)] = value;
    objective_ += objCoef_[static_cast<std::size_t>(j)] * value;
  }
}

}  // namespace treeplace::lp
