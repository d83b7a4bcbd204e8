#include "lp/sparse_basis.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "lp/tolerances.hpp"
#include "lp/workspace.hpp"
#include "support/budget.hpp"
#include "support/require.hpp"

namespace treeplace::lp {

namespace {

/// Pivot-loop safepoint: one budget tick per pivot, bail out as
/// IterationLimit when the shared budget trips.
inline bool budgetTripped(BudgetGuard* guard) {
  return guard != nullptr && guard->tick() != BudgetVerdict::Ok;
}

/// Threshold for partial pivoting: any row within this factor of the largest
/// eliminable entry is admissible, and the sparsest admissible row wins — the
/// classic compromise between stability (1.0 = strict partial pivoting) and
/// Markowitz fill control.
constexpr double kPivotThreshold = 0.1;

/// PRICE treats rho as dense once more than 1 / kDenseRhoFactor of its rows
/// are nonzero: past that, listing every nonbasic column after the scatter
/// is cheaper than marking the touched ones entry by entry.
constexpr std::size_t kDenseRhoFactor = 4;

/// `v` when `keep`, else +0.0, by masking the bits: a ternary or a multiply
/// by 0/1 here compiles to a jump that mispredicts on a quarter of the
/// columns (the basic ones).
inline double keepIf(double v, bool keep) {
  const std::uint64_t mask = std::uint64_t{0} - static_cast<std::uint64_t>(keep);
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(v) & mask);
}

}  // namespace

// ---------------------------------------------------------------------------
// SparseLu
// ---------------------------------------------------------------------------

bool SparseLu::factorize(int m, std::span<const int> colStart,
                         std::span<const int> rowIdx,
                         std::span<const double> values) {
  m_ = m;
  const auto mz = static_cast<std::size_t>(m);
  rowElim_.assign(mz, -1);
  elimRow_.assign(mz, -1);
  colOrder_.resize(mz);
  lColStart_.assign(1, 0);
  lRowIdx_.clear();
  lVal_.clear();
  uColStart_.assign(1, 0);
  uRowIdx_.clear();
  uVal_.clear();
  uDiag_.assign(mz, 0.0);
  etaStart_.assign(1, 0);
  etaRow_.clear();
  etaVal_.clear();
  etaPivotPos_.clear();
  etaPivotVal_.clear();
  etaReaders_.assign(mz, 0);
  etaPivotReaders_.clear();
  sparseZ_.assign(mz, 0.0);
  reach_.resize(mz);
  reachBits_.assign((mz + 63) / 64, 0);
  listBits_.assign((mz + 63) / 64, 0);

  // Static Markowitz ordering: columns ascending by nnz (singleton logical
  // columns triangularize first with zero fill), rows tie-broken by their
  // count in the unfactored matrix.
  rowCount_.assign(mz, 0);
  for (int k = 0; k < colStart[mz]; ++k)
    ++rowCount_[static_cast<std::size_t>(rowIdx[static_cast<std::size_t>(k)])];
  for (int j = 0; j < m; ++j) colOrder_[static_cast<std::size_t>(j)] = j;
  std::stable_sort(colOrder_.begin(), colOrder_.end(), [&](int a, int b) {
    return colStart[static_cast<std::size_t>(a) + 1] - colStart[static_cast<std::size_t>(a)] <
           colStart[static_cast<std::size_t>(b) + 1] - colStart[static_cast<std::size_t>(b)];
  });

  work_.assign(mz, 0.0);
  touchedMark_.assign(mz, 0);
  heapMark_.assign(mz, 0);
  touched_.clear();
  heap_.clear();
  const auto pushElim = [&](int j) {
    if (heapMark_[static_cast<std::size_t>(j)]) return;
    heapMark_[static_cast<std::size_t>(j)] = 1;
    heap_.push_back(j);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
  };
  const auto touch = [&](int r) {
    if (touchedMark_[static_cast<std::size_t>(r)]) return;
    touchedMark_[static_cast<std::size_t>(r)] = 1;
    touched_.push_back(r);
  };

  for (int k = 0; k < m; ++k) {
    const int col = colOrder_[static_cast<std::size_t>(k)];
    touched_.clear();
    heap_.clear();
    // Scatter the basis column into the dense work row space.
    for (int t = colStart[static_cast<std::size_t>(col)];
         t < colStart[static_cast<std::size_t>(col) + 1]; ++t) {
      const int r = rowIdx[static_cast<std::size_t>(t)];
      touch(r);
      work_[static_cast<std::size_t>(r)] += values[static_cast<std::size_t>(t)];
      const int j = rowElim_[static_cast<std::size_t>(r)];
      if (j >= 0) pushElim(j);
    }
    // Forward-eliminate with the already-factored columns, in ascending
    // elimination order (Gilbert–Peierls reach, scheduled through a min-heap
    // so only the symbolically reachable steps run).
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const int j = heap_.back();
      heap_.pop_back();
      heapMark_[static_cast<std::size_t>(j)] = 0;
      const double zj = work_[static_cast<std::size_t>(elimRow_[static_cast<std::size_t>(j)])];
      if (zj == 0.0) continue;
      for (int t = lColStart_[static_cast<std::size_t>(j)];
           t < lColStart_[static_cast<std::size_t>(j) + 1]; ++t) {
        const int r = lRowIdx_[static_cast<std::size_t>(t)];
        touch(r);
        work_[static_cast<std::size_t>(r)] -= lVal_[static_cast<std::size_t>(t)] * zj;
        const int jr = rowElim_[static_cast<std::size_t>(r)];
        if (jr >= 0) pushElim(jr);
      }
    }
    // Threshold pivot among the uneliminated touched rows.
    double maxAbs = 0.0;
    for (const int r : touched_)
      if (rowElim_[static_cast<std::size_t>(r)] < 0)
        maxAbs = std::max(maxAbs, std::abs(work_[static_cast<std::size_t>(r)]));
    if (maxAbs <= kPivotTol) {
      for (const int r : touched_) {
        work_[static_cast<std::size_t>(r)] = 0.0;
        touchedMark_[static_cast<std::size_t>(r)] = 0;
      }
      return false;  // structurally or numerically singular basis
    }
    int pivotRow = -1;
    int bestCount = 0;
    for (const int r : touched_) {
      if (rowElim_[static_cast<std::size_t>(r)] >= 0) continue;
      if (std::abs(work_[static_cast<std::size_t>(r)]) < kPivotThreshold * maxAbs) continue;
      const int count = rowCount_[static_cast<std::size_t>(r)];
      if (pivotRow < 0 || count < bestCount || (count == bestCount && r < pivotRow)) {
        pivotRow = r;
        bestCount = count;
      }
    }
    const double pivot = work_[static_cast<std::size_t>(pivotRow)];
    rowElim_[static_cast<std::size_t>(pivotRow)] = k;
    elimRow_[static_cast<std::size_t>(k)] = pivotRow;
    uDiag_[static_cast<std::size_t>(k)] = pivot;
    for (const int r : touched_) {
      const double v = work_[static_cast<std::size_t>(r)];
      work_[static_cast<std::size_t>(r)] = 0.0;
      touchedMark_[static_cast<std::size_t>(r)] = 0;
      if (r == pivotRow || v == 0.0) continue;
      const int j = rowElim_[static_cast<std::size_t>(r)];
      if (j >= 0) {
        uRowIdx_.push_back(j);
        uVal_.push_back(v);
      } else {
        lRowIdx_.push_back(r);
        lVal_.push_back(v / pivot);
      }
    }
    lColStart_.push_back(static_cast<int>(lRowIdx_.size()));
    uColStart_.push_back(static_cast<int>(uRowIdx_.size()));
  }
  return true;
}

void SparseLu::markListed(int i) const {
  listBits_[static_cast<std::size_t>(i) >> 6] |= std::uint64_t{1} << (i & 63);
}

void SparseLu::markStep(int k) const {
  reachBits_[static_cast<std::size_t>(k) >> 6] |= std::uint64_t{1} << (k & 63);
}

void SparseLu::takeListed(std::vector<int>& out) const {
  out.clear();
  for (std::size_t w = 0; w < listBits_.size(); ++w) {
    for (std::uint64_t bits = listBits_[w]; bits != 0; bits &= bits - 1)
      out.push_back(static_cast<int>(w * 64) + std::countr_zero(bits));
    listBits_[w] = 0;
  }
}

int SparseLu::takeLowestStep(std::size_t& word) const {
  for (; word < reachBits_.size(); ++word) {
    std::uint64_t& bits = reachBits_[word];
    if (bits == 0) continue;
    const int k = static_cast<int>(word * 64) + std::countr_zero(bits);
    bits &= bits - 1;
    return k;
  }
  return -1;
}

int SparseLu::takeHighestStep(std::size_t& word) const {
  // Here `word` is one past the next word to scan.
  for (; word > 0; --word) {
    std::uint64_t& bits = reachBits_[word - 1];
    if (bits == 0) continue;
    const int bit = 63 - std::countl_zero(bits);
    bits &= ~(std::uint64_t{1} << bit);
    return static_cast<int>((word - 1) * 64) + bit;
  }
  return -1;
}

void SparseLu::ftran(std::span<double> x, std::vector<int>* nonzeros) const {
  if (nonzeros != nullptr) {
    ftranSparse(x, *nonzeros);
  } else {
    ftranDense(x);
  }
  // Eta file, oldest first: x <- E^-1 x per recorded pivot (a sparse solve
  // grows its pattern where a zero fills in).
  for (std::size_t e = 0; e < etaPivotPos_.size(); ++e) {
    const auto p = static_cast<std::size_t>(etaPivotPos_[e]);
    const double t = x[p] / etaPivotVal_[e];
    x[p] = t;
    if (t == 0.0) continue;
    for (int q = etaStart_[e]; q < etaStart_[e + 1]; ++q) {
      const int i = etaRow_[static_cast<std::size_t>(q)];
      if (nonzeros != nullptr) markListed(i);
      x[static_cast<std::size_t>(i)] -= etaVal_[static_cast<std::size_t>(q)] * t;
    }
  }
  if (nonzeros != nullptr) takeListed(*nonzeros);
}

void SparseLu::ftranDense(std::span<double> x) const {
  // L z = x (x indexed by original row; z by elimination position).
  solveZ_.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) {
    const double zk = x[static_cast<std::size_t>(elimRow_[static_cast<std::size_t>(k)])];
    solveZ_[static_cast<std::size_t>(k)] = zk;
    if (zk == 0.0) continue;
    for (int t = lColStart_[static_cast<std::size_t>(k)];
         t < lColStart_[static_cast<std::size_t>(k) + 1]; ++t)
      x[static_cast<std::size_t>(lRowIdx_[static_cast<std::size_t>(t)])] -=
          lVal_[static_cast<std::size_t>(t)] * zk;
  }
  // U w = z (backward, column-oriented).
  for (int k = m_ - 1; k >= 0; --k) {
    double wk = solveZ_[static_cast<std::size_t>(k)];
    if (wk != 0.0) {
      wk /= uDiag_[static_cast<std::size_t>(k)];
      for (int t = uColStart_[static_cast<std::size_t>(k)];
           t < uColStart_[static_cast<std::size_t>(k) + 1]; ++t)
        solveZ_[static_cast<std::size_t>(uRowIdx_[static_cast<std::size_t>(t)])] -=
            uVal_[static_cast<std::size_t>(t)] * wk;
    }
    solveZ_[static_cast<std::size_t>(k)] = wk;
  }
  // Scatter back to basis positions (w_k belongs to basis column colOrder_[k]).
  for (int k = 0; k < m_; ++k)
    x[static_cast<std::size_t>(colOrder_[static_cast<std::size_t>(k)])] =
        solveZ_[static_cast<std::size_t>(k)];
}

void SparseLu::ftranSparse(std::span<double> x, std::span<const int> rows) const {
  double* xv = x.data();
  double* z = sparseZ_.data();
  const int* rowElim = rowElim_.data();
  const int* lStart = lColStart_.data();
  const int* lRow = lRowIdx_.data();
  const double* lVal = lVal_.data();
  const int* uStart = uColStart_.data();
  const int* uRow = uRowIdx_.data();
  const double* uVal = uVal_.data();
  int* reach = reach_.data();
  int reached = 0;

  // L z = x over the reach of the listed rows, in ascending elimination
  // order. Each row is read once, at its own step, and zeroed as it moves
  // into sparseZ_ (later steps only write rows eliminated after them).
  for (const int r : rows)
    if (xv[r] != 0.0) markStep(rowElim[r]);
  std::size_t word = 0;
  for (int k; (k = takeLowestStep(word)) >= 0;) {
    const int row = elimRow_[static_cast<std::size_t>(k)];
    const double zk = xv[row];
    xv[row] = 0.0;
    if (zk == 0.0) continue;
    z[k] = zk;
    reach[reached++] = k;
    for (int t = lStart[k]; t < lStart[k + 1]; ++t) {
      xv[lRow[t]] -= lVal[t] * zk;
      markStep(rowElim[lRow[t]]);
    }
  }
  // U w = z, descending over the reach of the nonzero z_k.
  for (int c = 0; c < reached; ++c) markStep(reach[c]);
  word = reachBits_.size();
  for (int k; (k = takeHighestStep(word)) >= 0;) {
    double wk = z[k];
    z[k] = 0.0;
    if (wk == 0.0) continue;
    wk /= uDiag_[static_cast<std::size_t>(k)];
    for (int t = uStart[k]; t < uStart[k + 1]; ++t) {
      z[uRow[t]] -= uVal[t] * wk;
      markStep(uRow[t]);
    }
    // w_k belongs to basis column colOrder_[k]; x is all zero by now.
    const int pos = colOrder_[static_cast<std::size_t>(k)];
    xv[pos] = wk;
    markListed(pos);
  }
}

void SparseLu::btranEta(std::size_t e, std::span<double> y) const {
  const auto p = static_cast<std::size_t>(etaPivotPos_[e]);
  double s = y[p];
  for (int q = etaStart_[e]; q < etaStart_[e + 1]; ++q)
    s -= etaVal_[static_cast<std::size_t>(q)] *
         y[static_cast<std::size_t>(etaRow_[static_cast<std::size_t>(q)])];
  y[p] = s / etaPivotVal_[e];
}

void SparseLu::btran(std::span<double> y) const {
  // Eta file transposed, newest first.
  for (std::size_t e = etaPivotPos_.size(); e-- > 0;) btranEta(e, y);
  btranFactors(y);
}

void SparseLu::btranUnit(int pos, std::span<double> y) const {
  std::fill(y.begin(), y.end(), 0.0);
  y[static_cast<std::size_t>(pos)] = 1.0;
  if (etaPivotPos_.size() > kIndexedEtas) {
    btran(y);
    return;
  }
  // Eta file transposed, newest first, over the etas that may read a nonzero
  // entry: every other eta reads only zeros and would write a signed zero.
  // Each eta that runs queues the older etas reading its pivot position
  // (also when it wrote a zero there, which runs an eta the full sweep runs
  // too).
  for (std::uint64_t pending = etaReaders_[static_cast<std::size_t>(pos)]; pending != 0;) {
    const int e = 63 - std::countl_zero(pending);
    btranEta(static_cast<std::size_t>(e), y);
    pending = (pending & ((std::uint64_t{1} << e) - 1)) |
              etaPivotReaders_[static_cast<std::size_t>(e)];
  }
  btranFactors(y);
}

void SparseLu::btranFactors(std::span<double> y) const {
  // U^T z = c' with c'_k = y[colOrder_[k]] (forward in elimination order).
  solveZ_.resize(static_cast<std::size_t>(m_));
  for (int k = 0; k < m_; ++k) {
    double s = y[static_cast<std::size_t>(colOrder_[static_cast<std::size_t>(k)])];
    for (int t = uColStart_[static_cast<std::size_t>(k)];
         t < uColStart_[static_cast<std::size_t>(k) + 1]; ++t)
      s -= uVal_[static_cast<std::size_t>(t)] *
           solveZ_[static_cast<std::size_t>(uRowIdx_[static_cast<std::size_t>(t)])];
    solveZ_[static_cast<std::size_t>(k)] = s / uDiag_[static_cast<std::size_t>(k)];
  }
  // L^T y = z, written by original row (backward: L column k only holds rows
  // eliminated after step k, whose y component is already final).
  work_.resize(static_cast<std::size_t>(m_));
  for (int k = m_ - 1; k >= 0; --k) {
    double s = solveZ_[static_cast<std::size_t>(k)];
    for (int t = lColStart_[static_cast<std::size_t>(k)];
         t < lColStart_[static_cast<std::size_t>(k) + 1]; ++t)
      s -= lVal_[static_cast<std::size_t>(t)] *
           work_[static_cast<std::size_t>(lRowIdx_[static_cast<std::size_t>(t)])];
    work_[static_cast<std::size_t>(elimRow_[static_cast<std::size_t>(k)])] = s;
  }
  std::copy(work_.begin(), work_.end(), y.begin());
}

bool SparseLu::appendEta(int p, std::span<const double> w, std::span<const int> nonzeros) {
  const double pivot = w[static_cast<std::size_t>(p)];
  if (std::abs(pivot) <= kPivotTol) return false;
  // Index the eta while it is among the first kIndexedEtas (a later one
  // sets no bit, and btranUnit then runs the full sweep).
  const auto e = static_cast<std::size_t>(etaCount());
  const std::uint64_t bit = e < kIndexedEtas ? std::uint64_t{1} << e : 0;
  if (bit != 0) {
    etaPivotReaders_.push_back(etaReaders_[static_cast<std::size_t>(p)]);
    etaReaders_[static_cast<std::size_t>(p)] |= bit;
  }
  for (const int i : nonzeros) {
    if (i == p) continue;
    const double v = w[static_cast<std::size_t>(i)];
    if (v != 0.0) {
      etaRow_.push_back(i);
      etaVal_.push_back(v);
      etaReaders_[static_cast<std::size_t>(i)] |= bit;
    }
  }
  etaStart_.push_back(static_cast<int>(etaRow_.size()));
  etaPivotPos_.push_back(p);
  etaPivotVal_.push_back(pivot);
  return true;
}

// ---------------------------------------------------------------------------
// SparseSimplex
// ---------------------------------------------------------------------------

void SparseSimplex::build(int m, int nStruct, int artificialStart,
                          std::vector<int> colStart, std::vector<int> rowIdx,
                          std::vector<double> values, std::vector<double> cost0,
                          std::vector<int> slackCol, std::vector<double> slackSign,
                          const SimplexOptions& options) {
  refactorEtaLimit_ = options.refactorEtaLimit;
  m_ = m;
  nStruct_ = nStruct;
  artificialStart_ = artificialStart;
  colStart_ = std::move(colStart);
  rowIdx_ = std::move(rowIdx);
  colVal_ = std::move(values);
  cost0_ = std::move(cost0);
  slackCol_ = std::move(slackCol);
  slackSign_ = std::move(slackSign);

  const auto nc = static_cast<std::size_t>(columnCount());
  colUpper_.assign(nc, kInfinity);
  artScale_.assign(static_cast<std::size_t>(m_), 1.0);
  basis_.assign(static_cast<std::size_t>(m_), -1);
  basisPos_.assign(nc, -1);
  basicUpper_.assign(static_cast<std::size_t>(m_), kInfinity);
  atUpper_.assign((static_cast<std::size_t>(artificialStart_) + 63) / 64, 0);
  xB_.assign(static_cast<std::size_t>(m_), 0.0);
  d_.assign(nc, 0.0);
  alpha_.assign(static_cast<std::size_t>(artificialStart_), 0.0);
  priceMark_.assign(static_cast<std::size_t>(artificialStart_), 0);
  priced_.assign(static_cast<std::size_t>(artificialStart_) + 1, 0);
  pricedCount_ = 0;
  pricedAll_ = false;

  // Row-wise copy of the structural + slack columns for PRICE. Columns are
  // visited in ascending order, so each row lists its entries by ascending
  // column and, within a column, in the column store's order.
  rowStart_.assign(static_cast<std::size_t>(m_) + 1, 0);
  for (int k = 0; k < colStart_[static_cast<std::size_t>(artificialStart_)]; ++k)
    ++rowStart_[static_cast<std::size_t>(rowIdx_[static_cast<std::size_t>(k)]) + 1];
  for (std::size_t r = 1; r < rowStart_.size(); ++r) rowStart_[r] += rowStart_[r - 1];
  std::vector<int> cursor(rowStart_.begin(), rowStart_.end() - 1);
  rowCol_.resize(static_cast<std::size_t>(rowStart_.back()));
  rowVal_.resize(rowCol_.size());
  for (int j = 0; j < artificialStart_; ++j)
    forColumn(j, [&](int r, double v) {
      const auto slot = static_cast<std::size_t>(cursor[static_cast<std::size_t>(r)]++);
      rowCol_[slot] = j;
      rowVal_[slot] = v;
    });
  ready_ = false;
}

double SparseSimplex::columnDot(std::span<const double> y, int col) const {
  double dot = 0.0;
  for (int k = colStart_[static_cast<std::size_t>(col)];
       k < colStart_[static_cast<std::size_t>(col) + 1]; ++k)
    dot += y[static_cast<std::size_t>(rowIdx_[static_cast<std::size_t>(k)])] *
           colVal_[static_cast<std::size_t>(k)];
  return dot;
}

void SparseSimplex::refreshBasicUpper() {
  for (int i = 0; i < m_; ++i)
    basicUpper_[static_cast<std::size_t>(i)] =
        colUpper_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
}

std::span<const int> SparseSimplex::priceRow(std::span<const double> rho) {
  // Branch-free compaction: a branch per row mispredicts on rho's scattered
  // nonzeros (about one row in ten after a unit btran).
  rhoRows_.resize(static_cast<std::size_t>(m_));
  std::size_t nonzeroRows = 0;
  for (int i = 0; i < m_; ++i) {
    rhoRows_[nonzeroRows] = i;
    nonzeroRows += static_cast<std::size_t>(rho[static_cast<std::size_t>(i)] != 0.0);
  }
  rhoRows_.resize(nonzeroRows);

  // Raw pointers: the stores into alpha would otherwise make the compiler
  // reload every vector's data pointer per entry.
  double* alpha = alpha_.data();
  char* mark = priceMark_.data();
  int* priced = priced_.data();
  const int* basisPos = basisPos_.data();
  const int* rowStart = rowStart_.data();
  const int* rowCol = rowCol_.data();
  const double* rowVal = rowVal_.data();
  if (pricedAll_) {
    std::fill(alpha_.begin(), alpha_.end(), 0.0);
  } else {
    for (int c = 0; c < pricedCount_; ++c) {
      alpha[priced[c]] = 0.0;
      mark[priced[c]] = 0;
    }
  }
  // Row by row, ascending: every alpha_j receives rho_r a_rj in the
  // order of column j's entries, exactly the sum a column-wise dot forms
  // (the terms it would add for rho_r == 0 are zeros that change no sum).
  // A sparse rho marks the nonbasic columns it reaches; basic columns add an
  // exact zero and stay unlisted, so the loop body has no data-dependent
  // branch. A dense rho reaches nearly every column: it scatters into all of
  // them, lists the nonbasic ones afterwards (the unreached ones keep
  // alpha_j = 0), and the next call wipes alpha whole.
  const bool dense = rhoRows_.size() * kDenseRhoFactor > static_cast<std::size_t>(m_);
  int count = 0;
  for (const int r : rhoRows_) {
    const double rr = rho[static_cast<std::size_t>(r)];
    const int end = rowStart[r + 1];
    if (dense) {
      for (int k = rowStart[r]; k < end; ++k) alpha[rowCol[k]] += rr * rowVal[k];
    } else {
      for (int k = rowStart[r]; k < end; ++k) {
        const int j = rowCol[k];
        const int nonbasic = static_cast<int>(basisPos[j] < 0);
        priced[count] = j;
        count += nonbasic & (mark[j] ^ 1);
        mark[j] = static_cast<char>(mark[j] | nonbasic);
        alpha[j] += keepIf(rr * rowVal[k], nonbasic != 0);
      }
    }
  }
  if (dense)
    for (int j = 0; j < artificialStart_; ++j) {
      priced[count] = j;
      count += static_cast<int>(basisPos[j] < 0);
    }
  pricedCount_ = count;
  pricedAll_ = dense;
  return {priced, static_cast<std::size_t>(count)};
}

void SparseSimplex::ftranColumn(int col) {
  wScratch_.assign(static_cast<std::size_t>(m_), 0.0);
  wRows_.clear();
  forColumn(col, [&](int r, double v) {
    wScratch_[static_cast<std::size_t>(r)] += v;
    wRows_.push_back(r);
  });
  lu_.ftran(wScratch_, &wRows_);
}

bool SparseSimplex::factorizeBasis(WarmStartStats& stats, bool isRefactor) {
  scratchStart_.assign(1, 0);
  scratchRow_.clear();
  scratchVal_.clear();
  for (int i = 0; i < m_; ++i) {
    forColumn(basis_[static_cast<std::size_t>(i)], [&](int r, double v) {
      scratchRow_.push_back(r);
      scratchVal_.push_back(v);
    });
    scratchStart_.push_back(static_cast<int>(scratchRow_.size()));
  }
  if (isRefactor) ++stats.refactorizations;
  if (!lu_.factorize(m_, scratchStart_, scratchRow_, scratchVal_))
    return false;
  stats.basisNnz = std::max(stats.basisNnz, lu_.factorEntries());
  return true;
}

bool SparseSimplex::recordPivot(int leavingPos, WarmStartStats& stats) {
  if (!lu_.appendEta(leavingPos, wScratch_, wRows_))
    return factorizeBasis(stats, true);
  ++stats.etaCount;
  if (lu_.etaCount() >= refactorEtaLimit_ ||
      static_cast<double>(lu_.etaEntries()) >
          kRefactorGrowthLimit * static_cast<double>(lu_.factorEntries()))
    return factorizeBasis(stats, true);
  return true;
}

double SparseSimplex::objectiveOf(std::span<const double> phaseCost) const {
  double obj = 0.0;
  for (int i = 0; i < m_; ++i)
    obj += phaseCost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])] *
           xB_[static_cast<std::size_t>(i)];
  forAtUpper([&](int j) {
    obj += phaseCost[static_cast<std::size_t>(j)] * colUpper_[static_cast<std::size_t>(j)];
    return true;
  });
  return obj;
}

SolveStatus SparseSimplex::primalIterate(std::span<const double> phaseCost,
                                         WarmStartStats& stats, BudgetGuard* guard) {
  bool useBland = false;
  long sinceImprovement = 0;
  double lastObjective = objectiveOf(phaseCost);
  for (long iter = 0; iter < kMaxIterations; ++iter) {
    if (budgetTripped(guard)) return SolveStatus::IterationLimit;
    // Price every nonbasic column: y = B^-T c_B, d_j = c_j - y a_j (a
    // column dot). An at-lower column may only rise (profitable when d < 0),
    // an at-upper one only fall (profitable when d > 0). Artificials never
    // re-enter.
    yScratch_.assign(static_cast<std::size_t>(m_), 0.0);
    for (int i = 0; i < m_; ++i)
      yScratch_[static_cast<std::size_t>(i)] =
          phaseCost[static_cast<std::size_t>(basis_[static_cast<std::size_t>(i)])];
    lu_.btran(yScratch_);
    int entering = -1;
    double best = kPivotTol;
    for (int j = 0; j < artificialStart_; ++j) {
      if (basisPos_[static_cast<std::size_t>(j)] >= 0) continue;
      const double dj = phaseCost[static_cast<std::size_t>(j)] - columnDot(yScratch_, j);
      const double gain = atUpper(j) ? dj : -dj;
      if (gain > best) {
        best = gain;
        entering = j;
        if (useBland) break;
      }
    }
    if (entering < 0) return SolveStatus::Optimal;
    const bool fromUpper = atUpper(entering);
    const double sigma = fromUpper ? -1.0 : 1.0;

    ftranColumn(entering);

    // Bounded ratio test: basic columns block at both box ends; the entering
    // column's own width caps the step (a binding cap degenerates the pivot
    // to a bound flip).
    int leaving = -1;
    bool leavingToUpper = false;
    double rowRatio = kInfinity;
    for (int i = 0; i < m_; ++i) {
      const double step = sigma * wScratch_[static_cast<std::size_t>(i)];
      double ratio;
      bool toUpper;
      if (step > kPivotTol) {
        ratio = std::max(0.0, xB_[static_cast<std::size_t>(i)] / step);
        toUpper = false;
      } else if (step < -kPivotTol) {
        const double ub = basicUpper_[static_cast<std::size_t>(i)];
        if (ub == kInfinity) continue;
        ratio = std::max(0.0, (ub - xB_[static_cast<std::size_t>(i)]) / -step);
        toUpper = true;
      } else {
        continue;
      }
      if (leaving < 0 || ratio < rowRatio - kRatioTieTol ||
          (ratio < rowRatio + kRatioTieTol &&
           basis_[static_cast<std::size_t>(i)] <
               basis_[static_cast<std::size_t>(leaving)])) {
        leaving = i;
        rowRatio = ratio;
        leavingToUpper = toUpper;
      }
    }

    const double flipLimit = colUpper_[static_cast<std::size_t>(entering)];
    if (leaving < 0 && flipLimit == kInfinity) return SolveStatus::Unbounded;
    if (leaving < 0 || flipLimit <= rowRatio) {
      const double delta = fromUpper ? -flipLimit : flipLimit;
      if (delta != 0.0)
        for (int i = 0; i < m_; ++i)
          xB_[static_cast<std::size_t>(i)] -=
              delta * wScratch_[static_cast<std::size_t>(i)];
      setAtUpper(entering, !fromUpper);
      ++stats.boundFlips;
    } else {
      const double delta = sigma * rowRatio;
      const double enterValue = (fromUpper ? flipLimit : 0.0) + delta;
      const int leavingCol = basis_[static_cast<std::size_t>(leaving)];
      for (int i = 0; i < m_; ++i) {
        if (i == leaving) continue;
        xB_[static_cast<std::size_t>(i)] -=
            delta * wScratch_[static_cast<std::size_t>(i)];
      }
      xB_[static_cast<std::size_t>(leaving)] = enterValue;
      basis_[static_cast<std::size_t>(leaving)] = entering;
      basicUpper_[static_cast<std::size_t>(leaving)] = flipLimit;
      basisPos_[static_cast<std::size_t>(entering)] = leaving;
      basisPos_[static_cast<std::size_t>(leavingCol)] = -1;
      setAtUpper(entering, false);
      setAtUpper(leavingCol, leavingToUpper);
      ++stats.primalIterations;
      if (!recordPivot(leaving, stats)) return SolveStatus::IterationLimit;
    }

    const double obj = objectiveOf(phaseCost);
    if (obj < lastObjective - kProgressTol) {
      lastObjective = obj;
      sinceImprovement = 0;
      useBland = false;
    } else if (++sinceImprovement > kStallLimit) {
      useBland = true;  // degeneracy suspected; Bland guarantees termination
    }
  }
  return SolveStatus::IterationLimit;
}

SolveStatus SparseSimplex::solveCold(std::span<const double> rhs,
                                     WarmStartStats& stats, BudgetGuard* guard) {
  ready_ = false;
  const auto nc = static_cast<std::size_t>(columnCount());
  std::fill(atUpper_.begin(), atUpper_.end(), 0);
  std::fill(basisPos_.begin(), basisPos_.end(), -1);
  // Artificial boxes reopen for phase 1 (they are pinned to zero afterwards).
  for (int j = artificialStart_; j < columnCount(); ++j)
    colUpper_[static_cast<std::size_t>(j)] = kInfinity;
  phaseCost_.assign(nc, 0.0);

  // Diagonal starting basis: the slack when it starts feasible, else the
  // row's artificial with its coefficient signed so the value is >= 0.
  for (int r = 0; r < m_; ++r) {
    const int slack = slackCol_[static_cast<std::size_t>(r)];
    const double sign = slackSign_[static_cast<std::size_t>(r)];
    const double b = rhs[static_cast<std::size_t>(r)];
    if (slack >= 0 && sign * b >= 0.0) {
      basis_[static_cast<std::size_t>(r)] = slack;
      xB_[static_cast<std::size_t>(r)] = sign * b;
    } else {
      const int art = artificialStart_ + r;
      artScale_[static_cast<std::size_t>(r)] = b >= 0.0 ? 1.0 : -1.0;
      basis_[static_cast<std::size_t>(r)] = art;
      xB_[static_cast<std::size_t>(r)] = std::abs(b);
      phaseCost_[static_cast<std::size_t>(art)] = 1.0;
    }
    basisPos_[static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)])] = r;
  }
  refreshBasicUpper();
  if (!factorizeBasis(stats, false)) return SolveStatus::IterationLimit;

  // Phase 1: minimise the sum of the issued artificials.
  {
    const SolveStatus st = primalIterate(phaseCost_, stats, guard);
    if (st == SolveStatus::IterationLimit) return st;
    // Bounded below by zero, so Unbounded is a numerical failure.
    if (st == SolveStatus::Unbounded) return SolveStatus::IterationLimit;
    if (objectiveOf(phaseCost_) > kFeasTol) return SolveStatus::Infeasible;
  }

  // Pin every artificial into the box [0, 0] instead of pivoting leftover
  // basics out row by row: a still-basic artificial simply carries a
  // zero-width box, and any later rhs that would need it nonzero surfaces as
  // dual infeasibility — the sparse analogue of a dense tableau's dead-row
  // check.
  for (int j = artificialStart_; j < columnCount(); ++j)
    colUpper_[static_cast<std::size_t>(j)] = 0.0;
  refreshBasicUpper();

  // Phase 2: original costs.
  phaseCost_.assign(nc, 0.0);
  for (int j = 0; j < nStruct_; ++j)
    phaseCost_[static_cast<std::size_t>(j)] = cost0_[static_cast<std::size_t>(j)];
  const SolveStatus st = primalIterate(phaseCost_, stats, guard);
  if (st != SolveStatus::Optimal) return st;
  ready_ = true;
  return SolveStatus::Optimal;
}

SolveStatus SparseSimplex::solveDual(std::span<const double> rhs,
                                     WarmStartStats& stats, BudgetGuard* guard) {
  TREEPLACE_REQUIRE(ready_, "sparse solveDual requires a prior optimal basis");

  // x_B = B^-1 (b - sum over at-upper nonbasics of width * a_j). A column
  // parked at its upper bound whose box just became unbounded has no value
  // to rest at; hand this solve back to the cold path.
  bScratch_.assign(rhs.begin(), rhs.end());
  const bool boxed = forAtUpper([&](int j) {
    const double u = colUpper_[static_cast<std::size_t>(j)];
    if (u == kInfinity) return false;
    if (u != 0.0)
      forColumn(j, [&](int r, double v) { bScratch_[static_cast<std::size_t>(r)] -= u * v; });
    return true;
  });
  if (!boxed) return SolveStatus::IterationLimit;
  xB_.assign(bScratch_.begin(), bScratch_.end());
  lu_.ftran(xB_);

  // Fresh reduced costs (costs never change, but rebuilding them per warm
  // solve keeps drift from compounding across a branch-and-bound dive):
  // d_j = c_j - y a_j with y = B^-T c_B.
  yScratch_.assign(static_cast<std::size_t>(m_), 0.0);
  for (int i = 0; i < m_; ++i)
    yScratch_[static_cast<std::size_t>(i)] =
        columnCost(basis_[static_cast<std::size_t>(i)]);
  lu_.btran(yScratch_);
  for (int j = 0; j < artificialStart_; ++j)
    d_[static_cast<std::size_t>(j)] = basisPos_[static_cast<std::size_t>(j)] >= 0
                                          ? 0.0
                                          : columnCost(j) - columnDot(yScratch_, j);

  long pivots = 0;
  bool useBland = false;
  long sinceImprovement = 0;
  double lastViolation = kInfinity;
  for (long iter = 0; iter < kMaxIterations; ++iter) {
    if (budgetTripped(guard)) return SolveStatus::IterationLimit;
    // Leaving position: largest box violation (Bland: first violating).
    int leaving = -1;
    bool aboveUpper = false;
    double bestViol = kFeasTol;
    for (int i = 0; i < m_; ++i) {
      const double v = xB_[static_cast<std::size_t>(i)];
      const double ub = basicUpper_[static_cast<std::size_t>(i)];
      double viol;
      bool above;
      if (v < -bestViol) {
        viol = -v;
        above = false;
      } else if (ub != kInfinity && v > ub + bestViol) {
        viol = v - ub;
        above = true;
      } else {
        continue;
      }
      bestViol = viol;
      leaving = i;
      aboveUpper = above;
      if (useBland) break;
    }
    if (leaving < 0) {
      if (pivots == 0) ++stats.warmAlreadyOptimal;
      return SolveStatus::Optimal;
    }
    const int leavingCol = basis_[static_cast<std::size_t>(leaving)];
    const double target = aboveUpper ? basicUpper_[static_cast<std::size_t>(leaving)] : 0.0;

    // Tableau row `leaving`: alpha_j = rho a_j with rho = B^-T e_leaving,
    // priced through the rows where rho is nonzero. Columns it misses have
    // alpha_j = 0 and can neither enter nor move a reduced cost.
    lu_.btranUnit(leaving, yScratch_);
    const std::span<const int> priced = priceRow(yScratch_);
    dualCandidates_.clear();
    for (const int j : priced) {
      const double arj = alpha_[static_cast<std::size_t>(j)];
      const bool up = atUpper(j);
      const bool eligible = aboveUpper ? (up ? arj < -kPivotTol
                                             : arj > kPivotTol)
                                       : (up ? arj > kPivotTol
                                             : arj < -kPivotTol);
      if (!eligible) continue;
      const double dj = up ? std::min(0.0, d_[static_cast<std::size_t>(j)])
                           : std::max(0.0, d_[static_cast<std::size_t>(j)]);
      dualCandidates_.push_back({std::abs(dj) / std::abs(arj), j});
    }
    if (dualCandidates_.empty()) {
      // No admissible column can push the leaving basic back inside its box:
      // primal infeasible. The basis stays dual feasible, hence warm.
      return SolveStatus::Infeasible;
    }

    int entering = -1;
    if (useBland) {
      // Bland's rule scans by ascending column.
      std::sort(dualCandidates_.begin(), dualCandidates_.end(),
                [](const auto& a, const auto& b) { return a.second < b.second; });
      double bestRatio = kInfinity;
      for (const auto& [ratio, j] : dualCandidates_) {
        if (ratio < bestRatio - kRatioTieTol) {
          bestRatio = ratio;
          entering = j;
        }
      }
    } else {
      // Bound-flipping ratio test: while the cheapest candidate's whole box
      // cannot absorb the violation, flip it and move on. Flips are batched
      // into one raw-space delta and applied with a single ftran. A min-heap
      // pops candidates in ascending (ratio, column) order and stops at the
      // one that enters, so the unpopped rest is never sorted.
      std::make_heap(dualCandidates_.begin(), dualCandidates_.end(), std::greater<>{});
      double leavingVal = xB_[static_cast<std::size_t>(leaving)];
      bool flipped = false;
      while (!dualCandidates_.empty()) {
        std::pop_heap(dualCandidates_.begin(), dualCandidates_.end(), std::greater<>{});
        const int j = dualCandidates_.back().second;
        dualCandidates_.pop_back();
        const double u = colUpper_[static_cast<std::size_t>(j)];
        if (u != kInfinity && !dualCandidates_.empty()) {
          const double residual = std::abs(leavingVal - target);
          if (std::abs(alpha_[static_cast<std::size_t>(j)]) * u <
              residual - kFeasTol) {
            const bool up = atUpper(j);
            const double delta = up ? -u : u;
            if (!flipped) {
              flipScratch_.assign(static_cast<std::size_t>(m_), 0.0);
              flipRows_.clear();
              flipped = true;
            }
            forColumn(j, [&](int r, double v) {
              flipScratch_[static_cast<std::size_t>(r)] += delta * v;
              flipRows_.push_back(r);
            });
            leavingVal -= delta * alpha_[static_cast<std::size_t>(j)];
            setAtUpper(j, !up);
            ++stats.boundFlips;
            continue;
          }
        }
        entering = j;
        break;
      }
      if (flipped) {
        lu_.ftran(flipScratch_, &flipRows_);
        for (const int i : flipRows_)
          xB_[static_cast<std::size_t>(i)] -= flipScratch_[static_cast<std::size_t>(i)];
      }
    }

    ftranColumn(entering);
    const double pivotVal = wScratch_[static_cast<std::size_t>(leaving)];
    if (std::abs(pivotVal) <= kPivotTol) {
      // The recomputed column disagrees with the priced row — numerical
      // trouble; let the caller rebuild from scratch.
      ready_ = false;
      return SolveStatus::IterationLimit;
    }
    const double t = (xB_[static_cast<std::size_t>(leaving)] - target) / pivotVal;
    const double enterValue =
        (atUpper(entering) ? colUpper_[static_cast<std::size_t>(entering)] : 0.0) + t;
    for (const int i : wRows_)
      xB_[static_cast<std::size_t>(i)] -= t * wScratch_[static_cast<std::size_t>(i)];
    xB_[static_cast<std::size_t>(leaving)] = enterValue;

    // Dual price update: theta = d_e / alpha_e, d_j -= theta alpha_j.
    const double thetaD = d_[static_cast<std::size_t>(entering)] / pivotVal;
    if (thetaD != 0.0)
      for (const int j : priced)
        d_[static_cast<std::size_t>(j)] -= thetaD * alpha_[static_cast<std::size_t>(j)];
    d_[static_cast<std::size_t>(entering)] = 0.0;
    if (leavingCol < artificialStart_)
      d_[static_cast<std::size_t>(leavingCol)] = -thetaD;

    basis_[static_cast<std::size_t>(leaving)] = entering;
    basicUpper_[static_cast<std::size_t>(leaving)] = colUpper_[static_cast<std::size_t>(entering)];
    basisPos_[static_cast<std::size_t>(entering)] = leaving;
    basisPos_[static_cast<std::size_t>(leavingCol)] = -1;
    setAtUpper(entering, false);
    setAtUpper(leavingCol, aboveUpper);
    ++pivots;
    ++stats.dualIterations;
    if (!recordPivot(leaving, stats)) {
      ready_ = false;
      return SolveStatus::IterationLimit;
    }

    if (bestViol < lastViolation - kProgressTol) {
      lastViolation = bestViol;
      sinceImprovement = 0;
    } else if (++sinceImprovement > kStallLimit) {
      useBland = true;  // degeneracy suspected
    }
  }
  ready_ = false;  // a cycling basis is not worth reusing
  return SolveStatus::IterationLimit;
}

void SparseSimplex::structuralValues(std::vector<double>& out) const {
  out.assign(static_cast<std::size_t>(nStruct_), 0.0);
  forAtUpper([&](int j) {
    if (j >= nStruct_) return false;  // slacks follow the structurals
    out[static_cast<std::size_t>(j)] = colUpper_[static_cast<std::size_t>(j)];
    return true;
  });
  for (int i = 0; i < m_; ++i) {
    const int b = basis_[static_cast<std::size_t>(i)];
    if (b < nStruct_) out[static_cast<std::size_t>(b)] = xB_[static_cast<std::size_t>(i)];
  }
}

}  // namespace treeplace::lp
