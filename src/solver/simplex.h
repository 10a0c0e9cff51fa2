#ifndef PCX_SOLVER_SIMPLEX_H_
#define PCX_SOLVER_SIMPLEX_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "solver/lp_model.h"

namespace pcx {

/// Dense two-phase primal simplex solver, written from scratch (the
/// paper assumes an off-the-shelf LP/MILP solver; none is available in
/// this environment, so the solver is part of the reproduction).
///
/// Scope: the LPs produced by pcx are small and dense — one variable per
/// decomposition cell or per joined relation, one ranged row per
/// predicate-constraint — so a dense tableau with Dantzig pricing and
/// Bland's anti-cycling rule is entirely adequate. The tableau is one
/// row-major array, filled straight from the model's rows. It and every
/// other scratch buffer live in a per-thread workspace that keeps its
/// capacity, so a chain of solves on one thread allocates nothing after
/// its first solve but each Solution::x. Integer variables are ignored
/// here (the relaxation is solved); see BranchAndBoundSolver for MILP.
///
/// Requirements: every variable must have a finite lower bound (pcx
/// models always use 0).
class SimplexSolver {
 public:
  struct Options {
    int max_iterations = 200000;
    double eps = 1e-9;         ///< pivot / reduced-cost tolerance
    double feas_tol = 1e-7;    ///< phase-1 feasibility tolerance
  };

  /// An optimal basis carried from one solve to the next. Rows and
  /// columns are identified *semantically* so the basis survives the
  /// variable-bound edits branch-and-bound performs: constraint j's
  /// upper/lower row has id 2j / 2j+1, variable i's upper-bound row has
  /// id 2 * num_constraints + i; column n + row_id is that row's
  /// slack/surplus. Only meaningful for models with the same constraint
  /// rows and objective (variable bounds may differ) — exactly the
  /// parent/child relation inside a branch-and-bound tree, where §4.2's
  /// 0/1-interval structure makes the re-optimization a handful of dual
  /// pivots instead of a full two-phase solve.
  struct WarmStart {
    /// (row id, semantic column id) per basic variable.
    std::vector<std::pair<uint32_t, uint32_t>> basis;
    bool valid() const { return !basis.empty(); }
    void Clear() { basis.clear(); }
  };

  SimplexSolver() : options_(Options{}) {}
  explicit SimplexSolver(Options options) : options_(options) {}

  /// Solves the continuous relaxation of `model` from a cold phase-1
  /// start.
  Solution Solve(const LpModel& model) const;

  /// Like Solve, but when `*warm` holds a valid basis the solver
  /// installs it and dual-pivots back to feasibility instead of running
  /// phase 1; any numerical trouble silently falls back to the cold
  /// path, so the result is always as trustworthy as Solve(model). On
  /// return `*warm` holds the final optimal basis (cleared when none is
  /// available, e.g. non-optimal outcomes).
  Solution Solve(const LpModel& model, WarmStart* warm) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace pcx

#endif  // PCX_SOLVER_SIMPLEX_H_
