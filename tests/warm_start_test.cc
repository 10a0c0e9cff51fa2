#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/random.h"
#include "pc/bound_solver.h"
#include "solver/milp.h"
#include "solver/simplex.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Random allocation-shaped LP/MILP: maximize c'x over ranged 0/1 rows,
/// x >= 0 (the paper §4.2 structure PcBoundSolver generates).
LpModel RandomModel(Rng* rng, bool integer) {
  const size_t n = 2 + static_cast<size_t>(rng->UniformInt(0, 6));
  const size_t m = 1 + static_cast<size_t>(rng->UniformInt(0, 4));
  LpModel model;
  model.set_sense(OptSense::kMaximize);
  for (size_t i = 0; i < n; ++i) {
    model.AddVariable(rng->Uniform(-2.0, 5.0), 0.0, kInf, integer);
  }
  for (size_t j = 0; j < m; ++j) {
    LinearConstraint row;
    for (size_t i = 0; i < n; ++i) {
      if (rng->Uniform(0.0, 1.0) < 0.6) row.terms.push_back({i, 1.0});
    }
    if (row.terms.empty()) row.terms.push_back({0, 1.0});
    row.lo = rng->Uniform(0.0, 1.0) < 0.4 ? rng->Uniform(0.0, 3.0) : 0.0;
    row.hi = row.lo + rng->Uniform(0.0, 8.0);
    model.AddConstraint(std::move(row));
  }
  return model;
}

TEST(WarmStartTest, WarmSolveOfBoundEditedModelMatchesColdSolve) {
  Rng rng(11);
  SimplexSolver solver;
  size_t warm_used = 0, attempts = 0;
  for (int trial = 0; trial < 300; ++trial) {
    LpModel model = RandomModel(&rng, /*integer=*/false);
    SimplexSolver::WarmStart warm;
    const Solution root = solver.Solve(model, &warm);
    if (root.status != SolveStatus::kOptimal || !warm.valid()) continue;

    // Branch-and-bound-style edit: tighten one variable's bounds.
    const size_t v = static_cast<size_t>(
        rng.UniformInt(0, static_cast<int>(model.num_variables()) - 1));
    const double x = root.x[v];
    if (rng.UniformInt(0, 1) == 0) {
      model.SetVariableBounds(v, 0.0, std::floor(x));
    } else {
      model.SetVariableBounds(v, std::ceil(x) + 1.0, kInf);
    }

    ++attempts;
    const Solution warm_sol = solver.Solve(model, &warm);
    const Solution cold_sol = solver.Solve(model);
    if (warm_sol.warm_used) ++warm_used;
    ASSERT_EQ(warm_sol.status, cold_sol.status) << "trial " << trial;
    if (warm_sol.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(warm_sol.objective, cold_sol.objective, 1e-6)
          << "trial " << trial;
    }
  }
  // The warm path must actually engage, not silently fall back cold.
  ASSERT_GT(attempts, 100u);
  EXPECT_GT(warm_used, attempts / 2);
}

TEST(WarmStartTest, InvalidWarmStartFallsBackToColdAndIsRefreshed) {
  Rng rng(5);
  SimplexSolver solver;
  LpModel model = RandomModel(&rng, /*integer=*/false);
  SimplexSolver::WarmStart warm;  // empty: nothing to install
  const Solution cold = solver.Solve(model);
  const Solution sol = solver.Solve(model, &warm);
  EXPECT_FALSE(sol.warm_used);
  EXPECT_EQ(sol.status, cold.status);
  if (sol.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(sol.objective, cold.objective, 1e-9);
    EXPECT_TRUE(warm.valid());  // refreshed with the final basis
  }
}

TEST(WarmStartTest, MilpWithAndWithoutWarmStartAgree) {
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    const LpModel model = RandomModel(&rng, /*integer=*/true);
    BranchAndBoundSolver::Options warm_opts;
    ASSERT_TRUE(warm_opts.use_warm_start);
    BranchAndBoundSolver::Options cold_opts;
    cold_opts.use_warm_start = false;
    const Solution a = BranchAndBoundSolver(warm_opts).Solve(model);
    const Solution b = BranchAndBoundSolver(cold_opts).Solve(model);
    ASSERT_EQ(a.status, b.status) << "trial " << trial;
    if (a.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-6) << "trial " << trial;
    }
  }
}

TEST(WarmStartTest, ChainedAllocationSolvesReducePivotsEndToEnd) {
  // The deployed warm-start pattern: PcBoundSolver re-solves one
  // allocation-row set under many objectives (MIN/MAX occupancy scans,
  // the AVG ratio iteration), chaining the root basis between solves.
  // Solution::pivots counts basis-install eliminations too, so the
  // lp_pivots comparison against per-solve cold phase-1/phase-2 is
  // honest — and on the paper-shaped models it must still win.
  Rng rng(41);
  PredicateConstraintSet pcs;
  for (int i = 0; i < 10; ++i) {
    Predicate pred(2);
    const double x = rng.Uniform(0.0, 6.0);
    const double y = rng.Uniform(0.0, 6.0);
    pred.AddRange(0, x, x + rng.Uniform(2.0, 5.0));
    pred.AddRange(1, y, y + rng.Uniform(2.0, 5.0));
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 50.0));
    pcs.Add(PredicateConstraint(pred, values, {i % 2 ? 1.0 : 0.0, 8.0}));
  }
  std::vector<AggQuery> queries;
  for (int q = 0; q < 4; ++q) {
    Predicate where(2);
    where.AddRange(0, 0.5 * q, 0.5 * q + 5.0);
    queries.push_back(AggQuery::Max(1, where));
    queries.push_back(AggQuery::Min(1, where));
    queries.push_back(AggQuery::Avg(1, where));
  }
  PcBoundSolver::Options warm_opts;
  ASSERT_TRUE(warm_opts.milp.use_warm_start);
  PcBoundSolver::Options cold_opts;
  cold_opts.milp.use_warm_start = false;
  const PcBoundSolver warm_solver(pcs, {}, warm_opts);
  const PcBoundSolver cold_solver(pcs, {}, cold_opts);
  size_t pivots_warm = 0, pivots_cold = 0;
  for (const AggQuery& q : queries) {
    const auto a = warm_solver.Bound(q);
    pivots_warm += warm_solver.last_stats().lp_pivots;
    const auto b = cold_solver.Bound(q);
    pivots_cold += cold_solver.last_stats().lp_pivots;
    ASSERT_EQ(a.ok(), b.ok());
    if (!a.ok()) continue;
    EXPECT_NEAR(a->lo, b->lo, 1e-6);
    EXPECT_NEAR(a->hi, b->hi, 1e-6);
    EXPECT_EQ(a->defined, b->defined);
  }
  EXPECT_LT(pivots_warm, pivots_cold);
}

TEST(WarmStartTest, PivotsReportedOnPlainSolves) {
  Rng rng(9);
  const LpModel model = RandomModel(&rng, /*integer=*/false);
  const Solution sol = SimplexSolver().Solve(model);
  if (sol.status == SolveStatus::kOptimal) {
    EXPECT_GE(sol.pivots, 0u);
  }
  const BranchAndBoundSolver bb;
  bb.Solve(model);
  EXPECT_EQ(bb.last_lp_solves(), 1u);  // continuous: single LP
}

}  // namespace
}  // namespace pcx
