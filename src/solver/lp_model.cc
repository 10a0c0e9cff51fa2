#include "solver/lp_model.h"

#include <algorithm>
#include <sstream>

#include "common/check.h"

namespace pcx {

void LpModel::Reserve(size_t variables, size_t constraints) {
  objective_.reserve(variables);
  var_lo_.reserve(variables);
  var_hi_.reserve(variables);
  integer_.reserve(variables);
  constraints_.reserve(constraints);
}

size_t LpModel::AddVariable(double objective_coef, double lo, double hi,
                            bool integer) {
  PCX_CHECK_LE(lo, hi);
  objective_.push_back(objective_coef);
  var_lo_.push_back(lo);
  var_hi_.push_back(hi);
  integer_.push_back(integer);
  return objective_.size() - 1;
}

size_t LpModel::AddConstraint(LinearConstraint c) {
  PCX_CHECK_LE(c.lo, c.hi);
  for (const auto& [v, coef] : c.terms) {
    PCX_CHECK(v < num_variables()) << "constraint references unknown variable";
    (void)coef;
  }
  constraints_.push_back(std::move(c));
  return constraints_.size() - 1;
}

void LpModel::SetObjective(const std::vector<double>& coefs) {
  PCX_CHECK_EQ(coefs.size(), objective_.size());
  std::copy(coefs.begin(), coefs.end(), objective_.begin());
}

void LpModel::SetVariableBounds(size_t v, double lo, double hi) {
  PCX_CHECK(v < num_variables());
  PCX_CHECK_LE(lo, hi);
  var_lo_[v] = lo;
  var_hi_[v] = hi;
}

bool LpModel::has_integers() const {
  for (bool b : integer_) {
    if (b) return true;
  }
  return false;
}

std::string LpModel::ToString() const {
  std::ostringstream os;
  os << (sense_ == OptSense::kMaximize ? "max " : "min ");
  for (size_t i = 0; i < objective_.size(); ++i) {
    if (i > 0) os << " + ";
    os << objective_[i] << "*x" << i;
  }
  os << "\n";
  for (const auto& c : constraints_) {
    os << "  " << c.lo << " <= ";
    for (size_t t = 0; t < c.terms.size(); ++t) {
      if (t > 0) os << " + ";
      os << c.terms[t].second << "*x" << c.terms[t].first;
    }
    os << " <= " << c.hi << "\n";
  }
  for (size_t i = 0; i < objective_.size(); ++i) {
    os << "  x" << i << " in [" << var_lo_[i] << ", " << var_hi_[i] << "]"
       << (integer_[i] ? " integer" : "") << "\n";
  }
  return os.str();
}

const char* SolveStatusToString(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return "OPTIMAL";
    case SolveStatus::kInfeasible:
      return "INFEASIBLE";
    case SolveStatus::kUnbounded:
      return "UNBOUNDED";
    case SolveStatus::kIterationLimit:
      return "ITERATION_LIMIT";
  }
  return "?";
}

}  // namespace pcx
