#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "lp/simplex.hpp"

namespace treeplace {
class BudgetGuard;
}

namespace treeplace::lp {

struct WarmStartStats;  // defined in lp/workspace.hpp

/// Sparse LU factorization of a simplex basis with product-form (eta-file)
/// updates — the representation behind the revised-simplex engine.
///
/// factorize() runs a left-looking elimination over the basis columns taken
/// in ascending-nnz order (the static Markowitz choice: singleton logical
/// columns eliminate first with zero fill, which triangularizes the bulk of
/// an LP basis before any arithmetic), with threshold partial pivoting that
/// prefers the sparsest admissible row — so fill-in stays near the
/// Markowitz minimum without the dynamic count bookkeeping.
///
/// Each pivot afterwards appends one eta column (PFI): B_new = B * E with E
/// the identity except column p = w = B^-1 a_q, so ftran applies the LU
/// solve then the eta file in order, and btran the eta file in reverse then
/// the transposed LU solve. The eta file grows by one sparse column per
/// pivot; the owning engine refactorizes when it gets long or dense (see
/// SimplexOptions::refactorEtaLimit and kRefactorGrowthLimit).
///
/// A row-wise index of the eta file lists, per basis position, the etas that
/// read it (an off-pivot entry or the pivot itself): one bit per eta, one
/// word per position, covering the first 64 etas (the default
/// refactorEtaLimit). A unit btran (btranUnit) runs only the etas that read
/// a nonzero entry of y; a skipped eta would have written a signed zero, so
/// every nonzero of y is the full sweep's bit for bit. Past 64 etas (a larger
/// refactorEtaLimit) it runs the full sweep.
class SparseLu {
 public:
  /// Factor the m x m matrix given in CSC (colStart has m+1 entries; column k
  /// is the basis column at position k). Returns false when numerically
  /// singular (no pivot above kPivotTol). Clears the eta file.
  bool factorize(int m, std::span<const int> colStart, std::span<const int> rowIdx,
                 std::span<const double> values);

  /// Solve B x = b in place (b indexed by row, x by basis position).
  ///
  /// With `nonzeros`, b may be nonzero only at the rows it lists, and on
  /// return it lists (ascending) the positions where x may be nonzero; x is
  /// exactly zero elsewhere. Only the elimination steps in the symbolic
  /// reach of b run, in the dense sweep's order and with its arithmetic, so
  /// every nonzero entry equals the dense solve's bit for bit.
  void ftran(std::span<double> x, std::vector<int>* nonzeros = nullptr) const;

  /// Solve B^T y = c in place (c indexed by basis position, y by row).
  void btran(std::span<double> y) const;

  /// Solve B^T y = e_pos into y (size m, overwritten). Every nonzero entry
  /// equals btran's bit for bit; an entry that is zero may differ in sign.
  void btranUnit(int pos, std::span<double> y) const;

  /// Record a pivot: basis position `p` received a column whose ftran image
  /// is `w`, nonzero only at the ascending positions `nonzeros` (the caller
  /// already has both from the ratio test). Returns false when the pivot
  /// element |w[p]| is at most kPivotTol, too small to apply stably — the
  /// caller should refactorize instead.
  bool appendEta(int p, std::span<const double> w, std::span<const int> nonzeros);

  int etaCount() const { return static_cast<int>(etaPivotPos_.size()); }
  long etaEntries() const { return static_cast<long>(etaRow_.size()); }
  /// L + U entries of the last factorization (fill-in included).
  long factorEntries() const {
    return static_cast<long>(lRowIdx_.size() + uRowIdx_.size()) + m_;
  }

 private:
  // The L and U stages of ftran. The sparse one marks its output positions
  // (see markListed).
  void ftranDense(std::span<double> x) const;
  void ftranSparse(std::span<double> x, std::span<const int> rows) const;
  /// Eta e transposed: y_p <- (y_p - sum w_i y_i) / w_p.
  void btranEta(std::size_t e, std::span<double> y) const;
  /// The U^T and L^T stages of btran, after the eta file.
  void btranFactors(std::span<double> y) const;
  /// Schedule elimination step k. The sparse solve only ever schedules steps
  /// after the one it is at (before it, when sweeping down), so a bitset
  /// scanned by a moving word cursor hands them out in the dense order.
  void markStep(int k) const;
  /// Pop the lowest (highest) scheduled step, scanning up (down) from
  /// `word`; -1 when none is left.
  int takeLowestStep(std::size_t& word) const;
  int takeHighestStep(std::size_t& word) const;
  /// Output pattern of the sparse solve: mark an index, then take all
  /// marked ones in ascending order (which clears the marks).
  void markListed(int i) const;
  void takeListed(std::vector<int>& out) const;

  int m_ = 0;
  // Row permutation: elimination position per original row and its inverse.
  std::vector<int> rowElim_, elimRow_;
  // Column order: basis position factored at elimination step k.
  std::vector<int> colOrder_;
  // L (unit diagonal, entries below it) in elimination-step CSC; row ids are
  // original rows, mapped through rowElim_ during solves.
  std::vector<int> lColStart_, lRowIdx_;
  std::vector<double> lVal_;
  // U in elimination-step CSC; row ids are elimination positions < k.
  std::vector<int> uColStart_, uRowIdx_;
  std::vector<double> uVal_, uDiag_;
  // Eta file: one sparse column per pivot, entries indexed by basis position.
  std::vector<int> etaStart_, etaRow_, etaPivotPos_;
  std::vector<double> etaVal_, etaPivotVal_;
  // Row-wise eta index over the first kIndexedEtas etas: bit e of
  // etaReaders_[i] is set when eta e reads position i, and
  // etaPivotReaders_[e] holds the older etas that read eta e's pivot
  // position. Cleared by factorize(), extended by appendEta().
  static constexpr std::size_t kIndexedEtas = 64;
  std::vector<std::uint64_t> etaReaders_, etaPivotReaders_;
  // Dense scratch for factorize/ftran/btran (by original row / by elim pos).
  mutable std::vector<double> work_, solveZ_;
  // Sparse ftran scratch: sparseZ_ and the bitsets are all zero between
  // solves; reach_ lists the steps of the L stage.
  mutable std::vector<double> sparseZ_;
  mutable std::vector<std::uint64_t> reachBits_, listBits_;
  mutable std::vector<int> reach_;
  // factorize() scratch: touched-row list and the pending-elimination heap.
  std::vector<int> touched_, heap_, rowCount_;
  std::vector<char> touchedMark_, heapMark_;
};

/// Bounded-variable revised simplex over a sparse column store — the engine
/// behind LpWorkspace. The constraint matrix lives in CSC
/// form (structural + slack columns; artificials are implicit +-e_r
/// singletons issued per cold solve) plus a row-wise copy for PRICE, the
/// basis in a SparseLu with eta updates, and both solve paths price through
/// ftran/btran instead of dense tableau sweeps. A warm dual pivot is
/// hypersparse: the pivot row is scattered from the rows where
/// rho = B^-T e_r is nonzero (its cost is the entries of those rows, not
/// nnz(A)), and the entering column's sparse ftran pattern drives the x_B
/// update and the eta append. Every pivot equals the one a dense
/// column-wise evaluation would take, bit for bit.
///
/// The per-solve state is laid out so that a warm re-solve reads only what
/// it needs: the nonbasic columns at their upper bound form a bitset scanned
/// word by word (ascending, so every sum over them keeps its order), the
/// boxes of the basic columns sit in a row-indexed array (`basicUpper_`)
/// beside x_B for the leaving-row scan and the ratio tests, and the caller
/// updates only the boxes it changed (setWidth). Reduced costs (primal
/// pricing and each warm solve's rebuild) are column dots; the row-wise
/// PRICE kernel serves the dual pivot row.
///
/// Pivot rules: Dantzig pricing, bounded ratio tests, a bound-flipping dual
/// ratio test, and stall detection falling back to Bland. The independent
/// reference it is checked against is the textbook dense tableau in
/// tests/lp_oracle — see tests/test_sparse_simplex.
class SparseSimplex {
 public:
  /// Bind the fixed standard form. Columns [0, nStruct) are structural with
  /// objective `cost0`; [nStruct, artificialStart) are slack/surplus columns
  /// (one entry, +-1); artificial columns are implicit, one per row.
  /// `slackCol`/`slackSign` give the logical column and its sign per row
  /// (-1 when Sense::Equal). The CSC spans stay owned by this object.
  void build(int m, int nStruct, int artificialStart,
             std::vector<int> colStart, std::vector<int> rowIdx,
             std::vector<double> values, std::vector<double> cost0,
             std::vector<int> slackCol, std::vector<double> slackSign,
             const SimplexOptions& options);

  bool ready() const { return ready_; }
  void invalidate() { ready_ = false; }

  /// Box width of structural column `col` for the next solve (kInfinity =
  /// open). Slack and artificial widths are internal.
  void setWidth(int col, double upper) {
    colUpper_[static_cast<std::size_t>(col)] = upper;
    const int pos = basisPos_[static_cast<std::size_t>(col)];
    if (pos >= 0) basicUpper_[static_cast<std::size_t>(pos)] = upper;
  }

  /// Two-phase primal from an all-logical basis. `rhs` is the model-space
  /// right-hand side under the current bound offsets. `guard`, when
  /// non-null, is ticked once per pivot; a trip returns IterationLimit.
  SolveStatus solveCold(std::span<const double> rhs, WarmStartStats& stats,
                        BudgetGuard* guard);

  /// Dual re-solve from the previous optimal basis under new rhs/boxes.
  /// Requires ready(). IterationLimit signals numerical trouble or a guard
  /// trip — fall back to solveCold().
  SolveStatus solveDual(std::span<const double> rhs, WarmStartStats& stats,
                        BudgetGuard* guard);

  /// Structural column values of the last Optimal solve.
  void structuralValues(std::vector<double>& out) const;

 private:
  int columnCount() const { return artificialStart_ + m_; }
  bool isArtificial(int col) const { return col >= artificialStart_; }
  double columnCost(int col) const {
    return col < nStruct_ ? cost0_[static_cast<std::size_t>(col)] : 0.0;
  }
  /// Iterate the entries of column `col` (artificials included).
  template <typename Fn>
  void forColumn(int col, Fn&& fn) const {
    if (isArtificial(col)) {
      const int r = col - artificialStart_;
      fn(r, artScale_[static_cast<std::size_t>(r)]);
      return;
    }
    for (int k = colStart_[static_cast<std::size_t>(col)];
         k < colStart_[static_cast<std::size_t>(col) + 1]; ++k)
      fn(rowIdx_[static_cast<std::size_t>(k)], colVal_[static_cast<std::size_t>(k)]);
  }
  /// y a_col for a structural or slack column, summed in the order of the
  /// column's entries (ascending rows, as LpWorkspace builds them). It is
  /// the sum priceRow forms for the column: priceRow adds the same products
  /// in the same order and skips only the rows where y is zero, whose terms
  /// change no sum.
  double columnDot(std::span<const double> y, int col) const;
  /// PRICE: alpha_j = rho a_j for every nonbasic structural/slack column,
  /// scattered from the nonzero rows of rho through the row-wise copy of A.
  /// Returns the nonbasic columns it touched; every other nonbasic column
  /// has alpha_j = 0 (basic columns' alpha_j mean nothing). Resets the
  /// previous call's entries first.
  std::span<const int> priceRow(std::span<const double> rho);
  /// The at-upper set. It holds structural and slack columns only: an
  /// artificial leaving at its upper bound rests at zero width either way.
  bool atUpper(int col) const {
    return (atUpper_[static_cast<std::size_t>(col) >> 6] >> (col & 63)) & 1;
  }
  void setAtUpper(int col, bool up) {
    if (col >= artificialStart_) return;
    const std::uint64_t bit = std::uint64_t{1} << (col & 63);
    std::uint64_t& word = atUpper_[static_cast<std::size_t>(col) >> 6];
    word = up ? word | bit : word & ~bit;
  }
  /// fn(col) for every at-upper column, ascending; stops when fn returns
  /// false (and then returns false itself).
  template <typename Fn>
  bool forAtUpper(Fn&& fn) const {
    for (std::size_t w = 0; w < atUpper_.size(); ++w)
      for (std::uint64_t bits = atUpper_[w]; bits != 0; bits &= bits - 1)
        if (!fn(static_cast<int>(w * 64) + std::countr_zero(bits))) return false;
    return true;
  }
  /// basicUpper_ from scratch, after the basis or the artificial boxes moved
  /// wholesale.
  void refreshBasicUpper();
  /// wScratch_ = B^-1 a_col, nonzero only at the ascending positions wRows_.
  void ftranColumn(int col);
  bool factorizeBasis(WarmStartStats& stats, bool isRefactor);
  /// Append the eta of the pivot whose column is in wScratch_/wRows_.
  bool recordPivot(int leavingPos, WarmStartStats& stats);
  SolveStatus primalIterate(std::span<const double> phaseCost, WarmStartStats& stats,
                            BudgetGuard* guard);
  double objectiveOf(std::span<const double> phaseCost) const;

  int refactorEtaLimit_ = 64;  ///< SimplexOptions::refactorEtaLimit

  // ---- fixed standard form ----
  int m_ = 0;
  int nStruct_ = 0;
  int artificialStart_ = 0;
  std::vector<int> colStart_, rowIdx_;
  std::vector<double> colVal_;
  std::vector<double> cost0_;
  std::vector<int> slackCol_;
  std::vector<double> slackSign_;
  // Row-wise copy of the same columns (CSR, ascending column per row).
  std::vector<int> rowStart_, rowCol_;
  std::vector<double> rowVal_;

  // ---- per-solve state ----
  std::vector<double> colUpper_;   ///< box width per column (kInfinity = open)
  std::vector<double> artScale_;   ///< +-1 artificial coefficient per row
  std::vector<int> basis_;         ///< column id per basis position
  std::vector<int> basisPos_;      ///< basis position per column, -1 nonbasic
  std::vector<double> basicUpper_; ///< colUpper_[basis_[i]] per position i
  std::vector<std::uint64_t> atUpper_;  ///< bitset: nonbasic at its upper bound
  std::vector<double> xB_;         ///< basic-variable values per position
  std::vector<double> d_;          ///< reduced costs (rebuilt per dual solve)
  SparseLu lu_;
  bool ready_ = false;

  // scratch
  std::vector<double> wScratch_, yScratch_, bScratch_, flipScratch_;
  std::vector<double> phaseCost_;
  std::vector<double> alpha_;      ///< priced row: zero outside priced_, but
                                   ///< any column after a dense call
  std::vector<char> priceMark_;    ///< column is in priced_ (sparse calls)
  std::vector<int> priced_;        ///< nonbasic columns touched (first pricedCount_)
  int pricedCount_ = 0;
  bool pricedAll_ = false;         ///< the last call was dense
  std::vector<int> rhoRows_, wRows_, flipRows_;
  std::vector<int> scratchStart_, scratchRow_;
  std::vector<double> scratchVal_;
  std::vector<std::pair<double, int>> dualCandidates_;
};

}  // namespace treeplace::lp
