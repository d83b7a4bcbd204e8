#include "lp/model.hpp"

#include "support/require.hpp"

namespace treeplace::lp {

int Model::addVariable(double lower, double upper, double objective, VarType type) {
  TREEPLACE_REQUIRE(lower <= upper, "variable bounds crossed");
  TREEPLACE_REQUIRE(lower != kInfinity && upper != -kInfinity, "bounds reversed at infinity");
  lower_.push_back(lower);
  upper_.push_back(upper);
  objective_.push_back(objective);
  types_.push_back(type);
  return static_cast<int>(objective_.size()) - 1;
}

int Model::addConstraint(Sense sense, double rhs, std::span<const Term> terms) {
  Row row;
  row.sense = sense;
  row.rhs = rhs;
  row.terms.reserve(terms.size());
  for (const Term& t : terms) {
    TREEPLACE_REQUIRE(t.variable >= 0 && t.variable < variableCount(),
                      "constraint references unknown variable");
    if (t.coefficient != 0.0) row.terms.push_back(t);
  }
  rows_.push_back(std::move(row));
  return static_cast<int>(rows_.size()) - 1;
}

void Model::setBounds(int variable, double lower, double upper) {
  TREEPLACE_REQUIRE(variable >= 0 && variable < variableCount(), "unknown variable");
  TREEPLACE_REQUIRE(lower <= upper, "variable bounds crossed");
  lower_[static_cast<std::size_t>(variable)] = lower;
  upper_[static_cast<std::size_t>(variable)] = upper;
}

void Model::setObjectiveCoefficient(int variable, double objective) {
  TREEPLACE_REQUIRE(variable >= 0 && variable < variableCount(), "unknown variable");
  objective_[static_cast<std::size_t>(variable)] = objective;
}

std::vector<int> Model::integerVariables() const {
  std::vector<int> out;
  for (int j = 0; j < variableCount(); ++j)
    if (types_[static_cast<std::size_t>(j)] == VarType::Integer) out.push_back(j);
  return out;
}

double Model::evaluateObjective(std::span<const double> point) const {
  TREEPLACE_REQUIRE(static_cast<int>(point.size()) == variableCount(),
                    "point size mismatch");
  double total = 0.0;
  for (int j = 0; j < variableCount(); ++j)
    total += objective_[static_cast<std::size_t>(j)] * point[static_cast<std::size_t>(j)];
  return total;
}

}  // namespace treeplace::lp
