#include "solver/milp.h"

#include <cmath>
#include <limits>
#include <queue>
#include <vector>

#include "common/check.h"

namespace pcx {
namespace {

struct Node {
  // Variable bound overrides relative to the root model.
  std::vector<std::pair<size_t, std::pair<double, double>>> bounds;
  double lp_bound = 0.0;  // objective of the parent relaxation
  // Parent's optimal basis; the child dual-pivots from it.
  SimplexSolver::WarmStart warm;
};

/// Priority: explore the most promising bound first.
struct NodeOrder {
  bool maximize;
  bool operator()(const Node& a, const Node& b) const {
    return maximize ? a.lp_bound < b.lp_bound : a.lp_bound > b.lp_bound;
  }
};

/// Most-fractional branching variable, or SIZE_MAX if integral.
size_t PickBranchVariable(const LpModel& model, const std::vector<double>& x,
                          double int_tol) {
  size_t best = SIZE_MAX;
  double best_frac_dist = int_tol;
  for (size_t i = 0; i < model.num_variables(); ++i) {
    if (!model.integer()[i]) continue;
    const double frac = x[i] - std::floor(x[i]);
    const double dist = std::min(frac, 1.0 - frac);
    if (dist > best_frac_dist) {
      best_frac_dist = dist;
      best = i;
    }
  }
  return best;
}

/// An integral relaxation as an incumbent: integer variables rounded
/// to shed tolerance noise.
Solution RoundedIncumbent(const LpModel& model, Solution relax) {
  for (size_t i = 0; i < model.num_variables(); ++i) {
    if (model.integer()[i]) relax.x[i] = std::round(relax.x[i]);
  }
  return relax;
}

}  // namespace

Solution BranchAndBoundSolver::Solve(const LpModel& model) const {
  return Solve(model, nullptr);
}

Solution BranchAndBoundSolver::Solve(
    const LpModel& model, SimplexSolver::WarmStart* root_warm) const {
  last_num_nodes_ = 0;
  last_lp_solves_ = 0;
  last_lp_pivots_ = 0;
  last_warm_solves_ = 0;
  if (!model.has_integers()) {
    Solution sol = options_.use_warm_start && root_warm != nullptr
                       ? lp_solver_.Solve(model, root_warm)
                       : lp_solver_.Solve(model);
    ++last_lp_solves_;
    last_lp_pivots_ += sol.pivots;
    if (sol.warm_used) ++last_warm_solves_;
    return sol;
  }

  const bool maximize = model.sense() == OptSense::kMaximize;
  if (options_.max_nodes == 0) {
    Solution out;
    out.status = SolveStatus::kIterationLimit;
    return out;
  }

  // The root relaxation is solved in place on the caller's model and
  // chains the caller's basis directly; most §4.2 models are integral
  // here, so nothing below runs for them.
  SimplexSolver::WarmStart local_warm;
  SimplexSolver::WarmStart* warm = nullptr;
  if (options_.use_warm_start) {
    warm = root_warm != nullptr ? root_warm : &local_warm;
  }
  ++last_num_nodes_;
  Solution root = warm != nullptr ? lp_solver_.Solve(model, warm)
                                  : lp_solver_.Solve(model);
  ++last_lp_solves_;
  last_lp_pivots_ += root.pivots;
  if (root.warm_used) ++last_warm_solves_;
  if (root.status != SolveStatus::kOptimal) {
    // An unbounded relaxation at the root means the MILP is unbounded
    // too (our feasible cones contain integer rays).
    Solution out;
    out.status = root.status;
    return out;
  }
  const size_t root_branch =
      PickBranchVariable(model, root.x, options_.int_tol);
  if (root_branch == SIZE_MAX) return RoundedIncumbent(model, std::move(root));

  // A fractional root: branch on a copy of the model.
  LpModel work = model;
  Solution incumbent;
  incumbent.status = SolveStatus::kInfeasible;
  double incumbent_obj =
      maximize ? -std::numeric_limits<double>::infinity()
               : std::numeric_limits<double>::infinity();
  auto better = [&](double a, double b) {
    return maximize ? a > b : a < b;
  };

  std::priority_queue<Node, std::vector<Node>, NodeOrder> open(
      NodeOrder{maximize});
  // Pushes the two children of `parent` split at x[branch_var] = v,
  // each starting from `basis`, the parent's optimal basis.
  auto push_children = [&](const Node& parent, const Solution& relax,
                           size_t branch_var,
                           const SimplexSolver::WarmStart* basis) {
    const double v = relax.x[branch_var];
    Node down = parent;
    down.lp_bound = relax.objective;
    down.bounds.push_back(
        {branch_var,
         {-std::numeric_limits<double>::infinity(), std::floor(v)}});
    Node up = parent;
    up.lp_bound = relax.objective;
    up.bounds.push_back(
        {branch_var,
         {std::ceil(v), std::numeric_limits<double>::infinity()}});
    if (basis != nullptr) {
      down.warm = *basis;
      up.warm = *basis;
    }
    open.push(std::move(down));
    open.push(std::move(up));
  };
  push_children(Node{}, root, root_branch, warm);

  bool hit_limit = false;
  while (!open.empty()) {
    if (last_num_nodes_ >= options_.max_nodes) {
      hit_limit = true;
      break;
    }
    Node node = open.top();
    open.pop();
    ++last_num_nodes_;

    // Bound-based pruning against the incumbent.
    if (incumbent.status == SolveStatus::kOptimal &&
        !better(node.lp_bound,
                incumbent_obj + (maximize ? options_.gap_tol
                                          : -options_.gap_tol))) {
      continue;
    }

    // Apply the node's variable bounds on top of the root bounds.
    for (size_t i = 0; i < work.num_variables(); ++i) {
      work.SetVariableBounds(i, model.var_lo()[i], model.var_hi()[i]);
    }
    bool bounds_ok = true;
    for (const auto& [v, lh] : node.bounds) {
      const double lo = std::max(work.var_lo()[v], lh.first);
      const double hi = std::min(work.var_hi()[v], lh.second);
      if (lo > hi) {
        bounds_ok = false;
        break;
      }
      work.SetVariableBounds(v, lo, hi);
    }
    if (!bounds_ok) continue;

    SimplexSolver::WarmStart node_warm;
    if (options_.use_warm_start) node_warm = std::move(node.warm);
    // With warm starts disabled, pass no basis slot at all so the cold
    // path skips basis extraction (the pre-overhaul cost profile).
    const Solution relax = options_.use_warm_start
                               ? lp_solver_.Solve(work, &node_warm)
                               : lp_solver_.Solve(work);
    ++last_lp_solves_;
    last_lp_pivots_ += relax.pivots;
    if (relax.warm_used) ++last_warm_solves_;
    if (relax.status == SolveStatus::kInfeasible) continue;
    if (relax.status == SolveStatus::kUnbounded) {
      Solution out;
      out.status = SolveStatus::kUnbounded;
      return out;
    }
    if (relax.status == SolveStatus::kIterationLimit) {
      hit_limit = true;
      continue;
    }
    if (incumbent.status == SolveStatus::kOptimal &&
        !better(relax.objective, incumbent_obj)) {
      continue;  // dominated
    }

    const size_t branch_var =
        PickBranchVariable(model, relax.x, options_.int_tol);
    if (branch_var == SIZE_MAX) {
      Solution cand = RoundedIncumbent(model, relax);
      if (incumbent.status != SolveStatus::kOptimal ||
          better(cand.objective, incumbent_obj)) {
        incumbent = std::move(cand);
        incumbent_obj = incumbent.objective;
      }
      continue;
    }
    push_children(node, relax, branch_var,
                  options_.use_warm_start ? &node_warm : nullptr);
  }

  if (incumbent.status == SolveStatus::kOptimal) return incumbent;
  Solution out;
  out.status = hit_limit ? SolveStatus::kIterationLimit
                         : SolveStatus::kInfeasible;
  return out;
}

}  // namespace pcx
