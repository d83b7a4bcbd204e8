#include "lp_oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <queue>
#include <utility>

#include "formulation/ilp.hpp"

namespace treeplace::lp::oracle {
namespace {

constexpr double kPivotEps = 1e-9;
constexpr double kFeasTol = 1e-7;
constexpr double kIntTol = 1e-6;
constexpr double kGap = 1e-6;
constexpr long kMaxPivots = 100000;

/// How a model variable maps onto non-negative tableau columns.
struct Mapping {
  enum class Kind { Shift, Mirror, Split } kind = Kind::Shift;
  int column = -1;
  int negColumn = -1;  // Split only
};

/// Dense tableau: `rows` x (`cols` + 1), the last column holding the basic
/// values; `d` is the reduced-cost row whose last entry is minus the
/// objective.
class Tableau {
 public:
  Tableau(int rows, int cols)
      : rows_(rows), cols_(cols),
        a_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols + 1), 0.0),
        d_(static_cast<std::size_t>(cols) + 1, 0.0),
        basis_(static_cast<std::size_t>(rows), -1) {}

  double& at(int i, int j) {
    return a_[static_cast<std::size_t>(i) * static_cast<std::size_t>(cols_ + 1) +
              static_cast<std::size_t>(j)];
  }
  double& rhs(int i) { return at(i, cols_); }
  int& basic(int i) { return basis_[static_cast<std::size_t>(i)]; }

  /// Reduced costs and objective for column costs `c` under the current
  /// basis.
  void price(const std::vector<double>& c) {
    for (int j = 0; j < cols_; ++j)
      d_[static_cast<std::size_t>(j)] = c[static_cast<std::size_t>(j)];
    d_[static_cast<std::size_t>(cols_)] = 0.0;
    for (int i = 0; i < rows_; ++i) {
      const double cb = c[static_cast<std::size_t>(basic(i))];
      if (cb == 0.0) continue;
      for (int j = 0; j <= cols_; ++j)
        d_[static_cast<std::size_t>(j)] -= cb * at(i, j);
    }
  }

  double objective() const { return -d_[static_cast<std::size_t>(cols_)]; }

  void pivot(int r, int e) {
    const double p = at(r, e);
    for (int j = 0; j <= cols_; ++j) at(r, j) /= p;
    for (int i = 0; i < rows_; ++i) {
      if (i == r) continue;
      const double f = at(i, e);
      if (f == 0.0) continue;
      for (int j = 0; j <= cols_; ++j) at(i, j) -= f * at(r, j);
    }
    const double f = d_[static_cast<std::size_t>(e)];
    for (int j = 0; j <= cols_; ++j) d_[static_cast<std::size_t>(j)] -= f * at(r, j);
    basic(r) = e;
  }

  /// Bland's rule over columns [0, enterLimit): returns Optimal, Unbounded
  /// or IterationLimit.
  SolveStatus iterate(int enterLimit) {
    for (long iter = 0; iter < kMaxPivots; ++iter) {
      int e = -1;
      for (int j = 0; j < enterLimit && e < 0; ++j)
        if (d_[static_cast<std::size_t>(j)] < -kPivotEps) e = j;
      if (e < 0) return SolveStatus::Optimal;
      int r = -1;
      double best = 0.0;
      for (int i = 0; i < rows_; ++i) {
        const double aie = at(i, e);
        if (aie <= kPivotEps) continue;
        const double ratio = rhs(i) / aie;
        if (r < 0 || ratio < best - 1e-12 ||
            (ratio <= best + 1e-12 && basic(i) < basic(r))) {
          r = i;
          best = ratio;
        }
      }
      if (r < 0) return SolveStatus::Unbounded;
      pivot(r, e);
    }
    return SolveStatus::IterationLimit;
  }

 private:
  int rows_, cols_;
  std::vector<double> a_;
  std::vector<double> d_;
  std::vector<int> basis_;
};

}  // namespace

LpSolution solveLp(const Model& model, std::span<const double> lower,
                   std::span<const double> upper) {
  const int n = model.variableCount();
  std::vector<Mapping> map(static_cast<std::size_t>(n));
  std::vector<double> structCost;
  for (int j = 0; j < n; ++j) {
    Mapping& m = map[static_cast<std::size_t>(j)];
    const double c = model.objective(j);
    m.column = static_cast<int>(structCost.size());
    if (lower[static_cast<std::size_t>(j)] != -kInfinity) {
      m.kind = Mapping::Kind::Shift;  // x = lo + t
      structCost.push_back(c);
    } else if (upper[static_cast<std::size_t>(j)] != kInfinity) {
      m.kind = Mapping::Kind::Mirror;  // x = hi - t
      structCost.push_back(-c);
    } else {
      m.kind = Mapping::Kind::Split;  // x = t+ - t-
      m.negColumn = m.column + 1;
      structCost.push_back(c);
      structCost.push_back(-c);
    }
  }
  const int nStruct = static_cast<int>(structCost.size());

  // Rows over structural columns: the model rows with the bound offsets
  // moved to the rhs, then one explicit row t <= hi - lo per finite range.
  struct Row {
    std::vector<double> coef;
    Sense sense;
    double rhs;
  };
  std::vector<Row> rows;
  for (int r = 0; r < model.constraintCount(); ++r) {
    Row row{std::vector<double>(static_cast<std::size_t>(nStruct), 0.0),
            model.rowSense(r), model.rowRhs(r)};
    for (const Term& t : model.rowTerms(r)) {
      const Mapping& m = map[static_cast<std::size_t>(t.variable)];
      const auto v = static_cast<std::size_t>(t.variable);
      switch (m.kind) {
        case Mapping::Kind::Shift:
          row.coef[static_cast<std::size_t>(m.column)] += t.coefficient;
          row.rhs -= t.coefficient * lower[v];
          break;
        case Mapping::Kind::Mirror:
          row.coef[static_cast<std::size_t>(m.column)] -= t.coefficient;
          row.rhs -= t.coefficient * upper[v];
          break;
        case Mapping::Kind::Split:
          row.coef[static_cast<std::size_t>(m.column)] += t.coefficient;
          row.coef[static_cast<std::size_t>(m.negColumn)] -= t.coefficient;
          break;
      }
    }
    rows.push_back(std::move(row));
  }
  for (int j = 0; j < n; ++j) {
    const Mapping& m = map[static_cast<std::size_t>(j)];
    const auto v = static_cast<std::size_t>(j);
    if (m.kind != Mapping::Kind::Shift || upper[v] == kInfinity) continue;
    Row row{std::vector<double>(static_cast<std::size_t>(nStruct), 0.0),
            Sense::LessEqual, upper[v] - lower[v]};
    row.coef[static_cast<std::size_t>(m.column)] = 1.0;
    rows.push_back(std::move(row));
  }

  // Columns: structural | one slack per inequality row | one artificial per
  // row. Rows are sign-flipped to a non-negative rhs; the artificials form
  // the starting basis.
  const int m = static_cast<int>(rows.size());
  int slacks = 0;
  for (const Row& row : rows) slacks += row.sense == Sense::Equal ? 0 : 1;
  const int artificialStart = nStruct + slacks;
  const int cols = artificialStart + m;
  Tableau tableau(m, cols);
  int slack = nStruct;
  for (int i = 0; i < m; ++i) {
    const Row& row = rows[static_cast<std::size_t>(i)];
    const double sign = row.rhs < 0.0 ? -1.0 : 1.0;
    for (int j = 0; j < nStruct; ++j)
      tableau.at(i, j) = sign * row.coef[static_cast<std::size_t>(j)];
    if (row.sense != Sense::Equal)
      tableau.at(i, slack++) = sign * (row.sense == Sense::LessEqual ? 1.0 : -1.0);
    tableau.at(i, artificialStart + i) = 1.0;
    tableau.rhs(i) = sign * row.rhs;
    tableau.basic(i) = artificialStart + i;
  }

  LpSolution solution;
  std::vector<double> cost(static_cast<std::size_t>(cols), 0.0);
  for (int j = artificialStart; j < cols; ++j) cost[static_cast<std::size_t>(j)] = 1.0;
  tableau.price(cost);
  SolveStatus st = tableau.iterate(artificialStart);
  if (st != SolveStatus::Optimal) {
    solution.status = SolveStatus::IterationLimit;  // phase 1 is bounded
    return solution;
  }
  if (tableau.objective() > kFeasTol) {
    solution.status = SolveStatus::Infeasible;
    return solution;
  }
  // Drive zero-valued artificials out of the basis; a row with no other
  // non-zero entry is redundant and keeps its artificial at zero.
  for (int i = 0; i < m; ++i) {
    if (tableau.basic(i) < artificialStart) continue;
    for (int j = 0; j < artificialStart; ++j) {
      if (std::abs(tableau.at(i, j)) > kPivotEps) {
        tableau.pivot(i, j);
        break;
      }
    }
  }

  std::fill(cost.begin(), cost.end(), 0.0);
  for (int j = 0; j < nStruct; ++j)
    cost[static_cast<std::size_t>(j)] = structCost[static_cast<std::size_t>(j)];
  tableau.price(cost);
  st = tableau.iterate(artificialStart);
  if (st != SolveStatus::Optimal) {
    solution.status = st;
    return solution;
  }

  std::vector<double> t(static_cast<std::size_t>(cols), 0.0);
  for (int i = 0; i < m; ++i)
    t[static_cast<std::size_t>(tableau.basic(i))] = tableau.rhs(i);
  solution.status = SolveStatus::Optimal;
  solution.values.resize(static_cast<std::size_t>(n));
  solution.objective = 0.0;
  for (int j = 0; j < n; ++j) {
    const Mapping& mp = map[static_cast<std::size_t>(j)];
    const auto v = static_cast<std::size_t>(j);
    const double tc = t[static_cast<std::size_t>(mp.column)];
    double x = 0.0;
    switch (mp.kind) {
      case Mapping::Kind::Shift: x = lower[v] + tc; break;
      case Mapping::Kind::Mirror: x = upper[v] - tc; break;
      case Mapping::Kind::Split: x = tc - t[static_cast<std::size_t>(mp.negColumn)]; break;
    }
    solution.values[v] = x;
    solution.objective += model.objective(j) * x;
  }
  return solution;
}

LpSolution solveLp(const Model& model) {
  std::vector<double> lower, upper;
  for (int j = 0; j < model.variableCount(); ++j) {
    lower.push_back(model.lower(j));
    upper.push_back(model.upper(j));
  }
  return solveLp(model, lower, upper);
}

MipSolution solveMip(const Model& model, long maxNodes) {
  struct Node {
    std::vector<double> lower, upper;
    double bound;
  };
  const auto worse = [](const Node& a, const Node& b) { return a.bound > b.bound; };
  std::priority_queue<Node, std::vector<Node>, decltype(worse)> open(worse);
  {
    Node root{{}, {}, -kInfinity};
    for (int j = 0; j < model.variableCount(); ++j) {
      root.lower.push_back(model.lower(j));
      root.upper.push_back(model.upper(j));
    }
    open.push(std::move(root));
  }

  MipSolution result;
  bool complete = true;
  while (!open.empty()) {
    if (result.nodesExplored >= maxNodes) {
      complete = false;
      break;
    }
    Node node = open.top();
    open.pop();
    ++result.nodesExplored;
    if (node.bound >= result.objective - kGap) continue;

    const LpSolution lp = solveLp(model, node.lower, node.upper);
    if (lp.status == SolveStatus::Infeasible) continue;
    if (lp.status == SolveStatus::Unbounded) {
      result.status = SolveStatus::Unbounded;
      result.values.clear();
      return result;
    }
    if (lp.status == SolveStatus::IterationLimit) {
      complete = false;
      continue;
    }
    if (lp.objective >= result.objective - kGap) continue;

    int branch = -1;
    for (const int j : model.integerVariables()) {
      const double x = lp.values[static_cast<std::size_t>(j)];
      if (std::abs(x - std::round(x)) > kIntTol) {
        branch = j;
        break;
      }
    }
    if (branch < 0) {
      result.objective = lp.objective;
      result.values = lp.values;
      for (const int j : model.integerVariables())
        result.values[static_cast<std::size_t>(j)] =
            std::round(result.values[static_cast<std::size_t>(j)]);
      continue;
    }
    const auto b = static_cast<std::size_t>(branch);
    const double x = lp.values[b];
    Node down = node;
    down.upper[b] = std::floor(x);
    down.bound = lp.objective;
    if (down.lower[b] <= down.upper[b]) open.push(std::move(down));
    Node up = std::move(node);
    up.lower[b] = std::ceil(x);
    up.bound = lp.objective;
    if (up.lower[b] <= up.upper[b]) open.push(std::move(up));
  }
  result.proven = complete;
  result.status = result.hasIncumbent() ? SolveStatus::Optimal : SolveStatus::Infeasible;
  return result;
}

IlpSolution solveIlp(const ProblemInstance& instance, Policy policy) {
  FormulationOptions fo;
  fo.integrality = FormulationOptions::Integrality::Exact;
  const IlpFormulation formulation(instance, policy, fo);
  const MipSolution mip = solveMip(formulation.model());
  IlpSolution result;
  result.proven = mip.proven;
  if (mip.hasIncumbent()) {
    result.placement = formulation.decode(mip.values);
    result.cost = result.placement->storageCost(instance);
  }
  return result;
}

}  // namespace treeplace::lp::oracle
