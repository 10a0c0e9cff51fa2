#ifndef PCX_SOLVER_LP_MODEL_H_
#define PCX_SOLVER_LP_MODEL_H_

#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace pcx {

/// A ranged linear constraint: lo <= sum(coef_i * x_i) <= hi.
/// Either side may be infinite. lo == hi expresses an equality.
struct LinearConstraint {
  std::vector<std::pair<size_t, double>> terms;  ///< (variable, coefficient)
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

/// Sense of optimization.
enum class OptSense { kMaximize, kMinimize };

/// A linear (or, with integrality flags, mixed-integer) program:
///   opt  c'x
///   s.t. lo_j <= a_j'x <= hi_j     for each constraint j
///        var_lo_i <= x_i <= var_hi_i
///        x_i integer where integer_[i]
/// Variables default to [0, +inf) continuous.
class LpModel {
 public:
  LpModel() = default;

  /// Reserves room for `variables` variables and `constraints` rows.
  void Reserve(size_t variables, size_t constraints);

  /// Adds a variable with the given bounds and objective coefficient;
  /// returns its index.
  size_t AddVariable(double objective_coef, double lo = 0.0,
                     double hi = std::numeric_limits<double>::infinity(),
                     bool integer = false);

  /// Adds a ranged constraint; returns its index.
  size_t AddConstraint(LinearConstraint c);

  void set_sense(OptSense sense) { sense_ = sense; }
  OptSense sense() const { return sense_; }

  size_t num_variables() const { return objective_.size(); }
  size_t num_constraints() const { return constraints_.size(); }

  const std::vector<double>& objective() const { return objective_; }
  const std::vector<double>& var_lo() const { return var_lo_; }
  const std::vector<double>& var_hi() const { return var_hi_; }
  const std::vector<bool>& integer() const { return integer_; }
  const std::vector<LinearConstraint>& constraints() const {
    return constraints_;
  }

  /// Replaces the objective, one coefficient per variable, keeping the
  /// rows: callers re-solve one row set under many objectives.
  void SetObjective(const std::vector<double>& coefs);

  /// Tightens the bounds of variable `v` (used by branch & bound).
  void SetVariableBounds(size_t v, double lo, double hi);

  /// True if any variable is flagged integer.
  bool has_integers() const;

  /// Debug dump.
  std::string ToString() const;

 private:
  OptSense sense_ = OptSense::kMaximize;
  std::vector<double> objective_;
  std::vector<double> var_lo_;
  std::vector<double> var_hi_;
  std::vector<bool> integer_;
  std::vector<LinearConstraint> constraints_;
};

/// Solver outcome.
enum class SolveStatus { kOptimal, kInfeasible, kUnbounded, kIterationLimit };

const char* SolveStatusToString(SolveStatus s);

/// Solution of an LP/MILP solve.
struct Solution {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
  std::vector<double> x;
  /// Simplex pivots spent (both phases; summed over the tree for MILP).
  size_t pivots = 0;
  /// True when the solve started from a caller-supplied basis instead of
  /// a cold phase-1.
  bool warm_used = false;
};

}  // namespace pcx

#endif  // PCX_SOLVER_LP_MODEL_H_
