#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "common/random.h"
#include "solver/milp.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(MilpTest, PureLpPassthrough) {
  LpModel m;
  m.AddVariable(1.0, 0.0, 3.5);
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.5, 1e-9);
}

TEST(MilpTest, RoundsDownFractionalOptimum) {
  // max x, x <= 3.7, x integer -> 3.
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, kInf, /*integer=*/true);
  m.AddConstraint({{{x, 1.0}}, -kInf, 3.7});
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
  EXPECT_NEAR(s.x[x], 3.0, 1e-9);
}

TEST(MilpTest, KnapsackKnownOptimum) {
  // 0/1 knapsack: values {60, 100, 120}, weights {10, 20, 30}, cap 50.
  // Optimum = 220 (items 2 and 3).
  LpModel m;
  const size_t a = m.AddVariable(60.0, 0.0, 1.0, true);
  const size_t b = m.AddVariable(100.0, 0.0, 1.0, true);
  const size_t c = m.AddVariable(120.0, 0.0, 1.0, true);
  m.AddConstraint({{{a, 10.0}, {b, 20.0}, {c, 30.0}}, -kInf, 50.0});
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 220.0, 1e-7);
  EXPECT_NEAR(s.x[a], 0.0, 1e-6);
  EXPECT_NEAR(s.x[b], 1.0, 1e-6);
  EXPECT_NEAR(s.x[c], 1.0, 1e-6);
}

TEST(MilpTest, OddCycleIndependentSet) {
  // Max independent set on C5: LP relaxation gives 2.5, integer optimum
  // is 2 — exactly the integrality gap the paper's Proposition 4.1
  // reduction exercises.
  LpModel m;
  std::vector<size_t> v(5);
  for (auto& var : v) var = m.AddVariable(1.0, 0.0, 1.0, true);
  for (int i = 0; i < 5; ++i) {
    m.AddConstraint({{{v[i], 1.0}, {v[(i + 1) % 5], 1.0}}, -kInf, 1.0});
  }
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-7);
}

TEST(MilpTest, EqualityWithIntegers) {
  // max 2x + y s.t. x + y = 5, x <= 3.2, integers -> x=3, y=2, z=8.
  LpModel m;
  const size_t x = m.AddVariable(2.0, 0.0, 3.2, true);
  const size_t y = m.AddVariable(1.0, 0.0, kInf, true);
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, 5.0, 5.0});
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-7);
}

TEST(MilpTest, InfeasibleIntegerGap) {
  // 0.4 <= x <= 0.6 has no integer point.
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, kInf, true);
  m.AddConstraint({{{x, 1.0}}, 0.4, 0.6});
  EXPECT_EQ(BranchAndBoundSolver().Solve(m).status,
            SolveStatus::kInfeasible);
}

TEST(MilpTest, InfeasibleLpDetected) {
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, 1.0, true);
  m.AddConstraint({{{x, 1.0}}, 5.0, kInf});
  EXPECT_EQ(BranchAndBoundSolver().Solve(m).status,
            SolveStatus::kInfeasible);
}

TEST(MilpTest, UnboundedDetected) {
  LpModel m;
  m.AddVariable(1.0, 0.0, kInf, true);
  EXPECT_EQ(BranchAndBoundSolver().Solve(m).status,
            SolveStatus::kUnbounded);
}

TEST(MilpTest, MinimizationDirection) {
  // min x s.t. x >= 2.3, integer -> 3.
  LpModel m;
  m.set_sense(OptSense::kMinimize);
  const size_t x = m.AddVariable(1.0, 0.0, kInf, true);
  m.AddConstraint({{{x, 1.0}}, 2.3, kInf});
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-7);
}

TEST(MilpTest, MixedIntegerAndContinuous) {
  // max x + y, x integer <= 2.5, y continuous <= 2.5 -> 2 + 2.5.
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, 2.5, true);
  const size_t y = m.AddVariable(1.0, 0.0, 2.5, false);
  (void)x;
  (void)y;
  const Solution s = BranchAndBoundSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.5, 1e-7);
}

TEST(MilpTest, NodeCounterPopulated) {
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, kInf, true);
  m.AddConstraint({{{x, 1.0}}, -kInf, 3.7});
  BranchAndBoundSolver solver;
  solver.Solve(m);
  EXPECT_GE(solver.last_num_nodes(), 1u);
}

TEST(MilpTest, FractionalRootBranchesAndChainsTheRootBasis) {
  // max x + y s.t. 2x + 2y <= 3, x - y in [-1, 1], x, y integer: the
  // root relaxation is 1.5, so the search copies the model and runs
  // the node queue down to the integer optimum 1.
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, kInf, true);
  const size_t y = m.AddVariable(1.0, 0.0, kInf, true);
  m.AddConstraint({{{x, 2.0}, {y, 2.0}}, -kInf, 3.0});
  m.AddConstraint({{{x, 1.0}, {y, -1.0}}, -1.0, 1.0});
  const std::string before = m.ToString();
  for (const bool warm_start : {true, false}) {
    BranchAndBoundSolver::Options options;
    options.use_warm_start = warm_start;
    const BranchAndBoundSolver solver(options);
    SimplexSolver::WarmStart root_warm;
    const Solution s = solver.Solve(m, &root_warm);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    EXPECT_NEAR(s.objective, 1.0, 1e-9);
    EXPECT_NEAR(s.x[x] + s.x[y], 1.0, 1e-9);
    EXPECT_GT(solver.last_num_nodes(), 1u);
    EXPECT_EQ(solver.last_lp_solves(), solver.last_num_nodes());
    // The caller's model is solved in place and left as it was.
    EXPECT_EQ(m.ToString(), before);
    // The root basis goes back to the caller only when warm starts are
    // on; a second solve then starts its root warm.
    EXPECT_EQ(root_warm.valid(), warm_start);
    const Solution again = solver.Solve(m, &root_warm);
    EXPECT_NEAR(again.objective, 1.0, 1e-9);
    EXPECT_EQ(solver.last_warm_solves() > 0, warm_start);
  }
}

/// Random small MILPs, verified against brute-force enumeration of the
/// integer lattice.
class MilpPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MilpPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    const size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 1));
    const double cap = 6.0;
    LpModel m;
    for (size_t i = 0; i < n; ++i) {
      m.AddVariable(rng.Uniform(-1.0, 3.0), 0.0, cap, true);
    }
    const size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 2));
    for (size_t rix = 0; rix < rows; ++rix) {
      LinearConstraint c;
      for (size_t i = 0; i < n; ++i) {
        c.terms.push_back({i, rng.Uniform(0.2, 1.5)});
      }
      c.lo = 0.0;
      c.hi = rng.Uniform(2.0, 8.0);
      m.AddConstraint(std::move(c));
    }
    const Solution s = BranchAndBoundSolver().Solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);

    // Brute force over the lattice [0, cap]^n.
    double best = -kInf;
    const int grid = static_cast<int>(cap) + 1;
    std::vector<int> point(n, 0);
    while (true) {
      bool feasible = true;
      for (const auto& c : m.constraints()) {
        double lhs = 0.0;
        for (const auto& [v, coef] : c.terms) lhs += coef * point[v];
        if (lhs < c.lo - 1e-9 || lhs > c.hi + 1e-9) {
          feasible = false;
          break;
        }
      }
      if (feasible) {
        double z = 0.0;
        for (size_t i = 0; i < n; ++i) z += m.objective()[i] * point[i];
        best = std::max(best, z);
      }
      size_t d = 0;
      while (d < n && ++point[d] == grid) point[d++] = 0;
      if (d == n) break;
    }
    EXPECT_NEAR(s.objective, best, 1e-6)
        << "trial " << trial << " model:\n" << m.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MilpPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace pcx
