#ifndef PCX_SOLVER_MILP_H_
#define PCX_SOLVER_MILP_H_

#include <cstddef>

#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace pcx {

/// Best-first branch-and-bound MILP solver built on SimplexSolver.
/// Solves the mixed-integer programs of paper §4.2: maximize U'X subject
/// to ranged cardinality rows, X integer. The constraint matrices there
/// are 0/1 "interval" matrices, so LP relaxations are frequently
/// integral and the search tree stays tiny; nonetheless the solver is a
/// complete general-purpose MILP engine with node/iteration caps.
///
/// Each node hands its optimal basis to its children, so a child
/// relaxation starts warm and usually re-optimizes in a handful of dual
/// pivots instead of a full two-phase solve (see
/// SimplexSolver::WarmStart).
class BranchAndBoundSolver {
 public:
  struct Options {
    SimplexSolver::Options lp;
    size_t max_nodes = 100000;  ///< search-node budget
    double int_tol = 1e-6;      ///< integrality tolerance
    /// Relative gap at which a node is pruned against the incumbent.
    double gap_tol = 1e-9;
    /// Carry each node's optimal basis into its children (off = every
    /// node cold-solves its relaxation, the pre-overhaul behavior).
    bool use_warm_start = true;
  };

  BranchAndBoundSolver() : BranchAndBoundSolver(Options{}) {}
  explicit BranchAndBoundSolver(Options options)
      : options_(options), lp_solver_(options.lp) {}

  /// Solves `model` honoring its integrality flags. If no variable is
  /// integral this is a single LP solve.
  Solution Solve(const LpModel& model) const;

  /// Like Solve, but seeds the *root* relaxation from `*root_warm` and
  /// writes the root's optimal basis back on success. The §4.2 LPs are
  /// usually integral at the root (single-node trees), so the big
  /// repeated cost is root phase-1 — callers that solve the same
  /// constraint rows under changing objectives (MIN/MAX occupancy
  /// scans, the AVG ratio iteration) chain their solves through this.
  Solution Solve(const LpModel& model,
                 SimplexSolver::WarmStart* root_warm) const;

  /// Number of branch-and-bound nodes explored in the last Solve call.
  size_t last_num_nodes() const { return last_num_nodes_; }
  /// LP relaxations solved / simplex pivots spent in the last Solve call
  /// (the SolveStats::lp_pivots feed).
  size_t last_lp_solves() const { return last_lp_solves_; }
  size_t last_lp_pivots() const { return last_lp_pivots_; }
  /// Relaxations that reused a parent basis in the last Solve call.
  size_t last_warm_solves() const { return last_warm_solves_; }

 private:
  Options options_;
  SimplexSolver lp_solver_;
  mutable size_t last_num_nodes_ = 0;
  mutable size_t last_lp_solves_ = 0;
  mutable size_t last_lp_pivots_ = 0;
  mutable size_t last_warm_solves_ = 0;
};

}  // namespace pcx

#endif  // PCX_SOLVER_MILP_H_
