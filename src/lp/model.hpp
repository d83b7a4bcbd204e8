#pragma once

#include <limits>
#include <span>
#include <utility>
#include <vector>

namespace treeplace::lp {

inline constexpr double kInfinity = std::numeric_limits<double>::infinity();

enum class Sense { LessEqual, Equal, GreaterEqual };

enum class VarType { Continuous, Integer };

/// One linear term: coefficient * variable.
struct Term {
  int variable;
  double coefficient;
};

/// A minimisation mixed-integer linear program:
///   min  c'x   s.t.  rows (<=, =, >=),  l <= x <= u,  x_j integral for
///   integer-typed variables.
/// Built incrementally; solved by solveLp (relaxation) or solveMip.
class Model {
 public:
  /// Returns the variable index.
  int addVariable(double lower, double upper, double objective,
                  VarType type = VarType::Continuous);

  /// Returns the row index.
  int addConstraint(Sense sense, double rhs, std::span<const Term> terms);

  void setBounds(int variable, double lower, double upper);
  void setObjectiveCoefficient(int variable, double objective);
  /// Replace a row's right-hand side in place. The online re-solve layer
  /// patches demand/capacity deltas this way instead of rebuilding the model.
  void setRowRhs(int row, double rhs) {
    rows_.at(static_cast<std::size_t>(row)).rhs = rhs;
  }

  int variableCount() const { return static_cast<int>(objective_.size()); }
  int constraintCount() const { return static_cast<int>(rows_.size()); }

  double lower(int variable) const { return lower_.at(static_cast<std::size_t>(variable)); }
  double upper(int variable) const { return upper_.at(static_cast<std::size_t>(variable)); }
  double objective(int variable) const {
    return objective_.at(static_cast<std::size_t>(variable));
  }
  VarType type(int variable) const { return types_.at(static_cast<std::size_t>(variable)); }

  const std::vector<Term>& rowTerms(int row) const {
    return rows_.at(static_cast<std::size_t>(row)).terms;
  }
  Sense rowSense(int row) const { return rows_.at(static_cast<std::size_t>(row)).sense; }
  double rowRhs(int row) const { return rows_.at(static_cast<std::size_t>(row)).rhs; }

  /// Indices of integer-typed variables.
  std::vector<int> integerVariables() const;

  /// Objective value of a candidate point (no feasibility check).
  double evaluateObjective(std::span<const double> point) const;

 private:
  struct Row {
    Sense sense;
    double rhs;
    std::vector<Term> terms;
  };

  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> objective_;
  std::vector<VarType> types_;
  std::vector<Row> rows_;
};

}  // namespace treeplace::lp
