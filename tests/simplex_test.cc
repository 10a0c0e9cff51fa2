#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "solver/lp_model.h"
#include "solver/simplex.h"

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(SimplexTest, SingleVariableBound) {
  LpModel m;
  m.AddVariable(1.0, 0.0, 5.0);
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
}

TEST(SimplexTest, ClassicTwoVariableLp) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  -> x=2, y=6, z=36.
  LpModel m;
  const size_t x = m.AddVariable(3.0);
  const size_t y = m.AddVariable(5.0);
  m.AddConstraint({{{x, 1.0}}, -kInf, 4.0});
  m.AddConstraint({{{y, 2.0}}, -kInf, 12.0});
  m.AddConstraint({{{x, 3.0}, {y, 2.0}}, -kInf, 18.0});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-8);
  EXPECT_NEAR(s.x[x], 2.0, 1e-8);
  EXPECT_NEAR(s.x[y], 6.0, 1e-8);
}

TEST(SimplexTest, EqualityConstraint) {
  // max x + y s.t. x + y = 3, x <= 2 -> 3.
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, 2.0);
  const size_t y = m.AddVariable(1.0);
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, 3.0, 3.0});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 3.0, 1e-9);
}

TEST(SimplexTest, GreaterEqualConstraint) {
  // min 2x + 3y s.t. x + y >= 10, x <= 6 -> x=6, y=4, z=24.
  LpModel m;
  m.set_sense(OptSense::kMinimize);
  const size_t x = m.AddVariable(2.0, 0.0, 6.0);
  const size_t y = m.AddVariable(3.0);
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, 10.0, kInf});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 24.0, 1e-8);
  EXPECT_NEAR(s.x[x], 6.0, 1e-8);
}

TEST(SimplexTest, RangedConstraint) {
  // max x subject to 2 <= x <= 7 expressed as a ranged row.
  LpModel m;
  const size_t x = m.AddVariable(1.0);
  m.AddConstraint({{{x, 1.0}}, 2.0, 7.0});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.0, 1e-9);
  // And the minimize direction hits the lower end.
  m.set_sense(OptSense::kMinimize);
  const Solution s2 = SimplexSolver().Solve(m);
  ASSERT_EQ(s2.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s2.objective, 2.0, 1e-9);
}

TEST(SimplexTest, InfeasibleDetected) {
  LpModel m;
  const size_t x = m.AddVariable(1.0, 0.0, 1.0);
  m.AddConstraint({{{x, 1.0}}, 2.0, kInf});  // x >= 2 vs x <= 1
  EXPECT_EQ(SimplexSolver().Solve(m).status, SolveStatus::kInfeasible);
}

TEST(SimplexTest, UnboundedDetected) {
  LpModel m;
  m.AddVariable(1.0);  // max x, x >= 0, no upper bound
  EXPECT_EQ(SimplexSolver().Solve(m).status, SolveStatus::kUnbounded);
}

TEST(SimplexTest, MinimizeUnboundedBelowIsFineWhenBounded) {
  // min x with x in [0, inf) is 0, not unbounded.
  LpModel m;
  m.set_sense(OptSense::kMinimize);
  m.AddVariable(1.0);
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 0.0, 1e-9);
}

TEST(SimplexTest, ShiftedLowerBounds) {
  // max x + y with x in [2, 5], y in [1, 3] -> 8.
  LpModel m;
  m.AddVariable(1.0, 2.0, 5.0);
  m.AddVariable(1.0, 1.0, 3.0);
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, 1e-9);
  EXPECT_NEAR(s.x[0], 5.0, 1e-9);
  EXPECT_NEAR(s.x[1], 3.0, 1e-9);
}

TEST(SimplexTest, NegativeObjectiveCoefficients) {
  // max -x - y s.t. x + y >= 2 -> -2.
  LpModel m;
  const size_t x = m.AddVariable(-1.0);
  const size_t y = m.AddVariable(-1.0);
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, 2.0, kInf});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -2.0, 1e-8);
}

TEST(SimplexTest, DegenerateLpTerminates) {
  // Multiple redundant constraints through one vertex.
  LpModel m;
  const size_t x = m.AddVariable(1.0);
  const size_t y = m.AddVariable(1.0);
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, -kInf, 1.0});
  m.AddConstraint({{{x, 2.0}, {y, 2.0}}, -kInf, 2.0});
  m.AddConstraint({{{x, 1.0}}, -kInf, 1.0});
  m.AddConstraint({{{y, 1.0}}, -kInf, 1.0});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-8);
}

TEST(SimplexTest, RedundantEqualityRows) {
  // x + y = 2 stated twice (redundant artificial stays basic at 0).
  LpModel m;
  const size_t x = m.AddVariable(1.0);
  const size_t y = m.AddVariable(0.0);
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, 2.0, 2.0});
  m.AddConstraint({{{x, 1.0}, {y, 1.0}}, 2.0, 2.0});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-8);
}

TEST(SimplexTest, FractionalEdgeCoverTriangleLp) {
  // The triangle-query FEC LP: min c1+c2+c3 (equal log sizes) s.t. each
  // attribute covered: c1+c3 >= 1, c1+c2 >= 1, c2+c3 >= 1.
  // Optimum: all c = 1/2, total 1.5 — the AGM N^{3/2} exponent.
  LpModel m;
  m.set_sense(OptSense::kMinimize);
  const size_t c1 = m.AddVariable(1.0);
  const size_t c2 = m.AddVariable(1.0);
  const size_t c3 = m.AddVariable(1.0);
  m.AddConstraint({{{c1, 1.0}, {c3, 1.0}}, 1.0, kInf});
  m.AddConstraint({{{c1, 1.0}, {c2, 1.0}}, 1.0, kInf});
  m.AddConstraint({{{c2, 1.0}, {c3, 1.0}}, 1.0, kInf});
  const Solution s = SimplexSolver().Solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-8);
}

/// Feasibility- and optimality-audited random LPs: the solver's answer
/// is checked for primal feasibility, and optimality is sanity-checked
/// against random feasible points.
class SimplexPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexPropertyTest, RandomLpsAreFeasibleAndUndominated) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 2 + static_cast<size_t>(rng.UniformInt(0, 2));
    LpModel m;
    for (size_t i = 0; i < n; ++i) {
      m.AddVariable(rng.Uniform(-2.0, 3.0), 0.0, rng.Uniform(1.0, 10.0));
    }
    const size_t rows = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
    for (size_t rix = 0; rix < rows; ++rix) {
      LinearConstraint c;
      for (size_t i = 0; i < n; ++i) {
        if (rng.Bernoulli(0.7)) c.terms.push_back({i, rng.Uniform(0.1, 2.0)});
      }
      if (c.terms.empty()) c.terms.push_back({0, 1.0});
      c.hi = rng.Uniform(5.0, 20.0);  // generous: x = 0 stays feasible
      m.AddConstraint(std::move(c));
    }
    const Solution s = SimplexSolver().Solve(m);
    ASSERT_EQ(s.status, SolveStatus::kOptimal);
    // Primal feasibility.
    for (size_t i = 0; i < n; ++i) {
      EXPECT_GE(s.x[i], m.var_lo()[i] - 1e-7);
      EXPECT_LE(s.x[i], m.var_hi()[i] + 1e-7);
    }
    for (const auto& c : m.constraints()) {
      double lhs = 0.0;
      for (const auto& [v, coef] : c.terms) lhs += coef * s.x[v];
      EXPECT_GE(lhs, c.lo - 1e-6);
      EXPECT_LE(lhs, c.hi + 1e-6);
    }
    // Objective consistency.
    double z = 0.0;
    for (size_t i = 0; i < n; ++i) z += m.objective()[i] * s.x[i];
    EXPECT_NEAR(z, s.objective, 1e-6);
    // No random feasible point may beat the reported optimum.
    for (int probe = 0; probe < 200; ++probe) {
      std::vector<double> p(n);
      for (size_t i = 0; i < n; ++i) {
        p[i] = rng.Uniform(m.var_lo()[i], m.var_hi()[i]);
      }
      bool feasible = true;
      for (const auto& c : m.constraints()) {
        double lhs = 0.0;
        for (const auto& [v, coef] : c.terms) lhs += coef * p[v];
        if (lhs < c.lo - 1e-9 || lhs > c.hi + 1e-9) {
          feasible = false;
          break;
        }
      }
      if (!feasible) continue;
      double pz = 0.0;
      for (size_t i = 0; i < n; ++i) pz += m.objective()[i] * p[i];
      EXPECT_LE(pz, s.objective + 1e-6);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexPropertyTest,
                         ::testing::Values(101, 202, 303, 404, 505));

/// What brute-force vertex enumeration says about a tiny LP.
struct VertexOracle {
  SolveStatus status = SolveStatus::kInfeasible;
  double objective = 0.0;
};

/// Best sense-adjusted objective over the vertices of `m`'s feasible
/// region with every variable also capped at lo + cap, or -inf when
/// that region is empty. A vertex is where n of the hyperplanes (row
/// sides, variable bounds, caps) meet and every row and bound holds.
double BestCappedVertex(const LpModel& m, double cap) {
  const size_t n = m.num_variables();
  struct Plane {
    std::vector<double> a;
    double rhs;
  };
  std::vector<Plane> planes;
  for (const auto& c : m.constraints()) {
    std::vector<double> a(n, 0.0);
    for (const auto& [v, coef] : c.terms) a[v] += coef;
    if (c.lo > -kInf) planes.push_back({a, c.lo});
    if (c.hi < kInf && c.hi != c.lo) planes.push_back({a, c.hi});
  }
  std::vector<double> hi(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> a(n, 0.0);
    a[i] = 1.0;
    hi[i] = std::min(m.var_hi()[i], m.var_lo()[i] + cap);
    planes.push_back({a, m.var_lo()[i]});
    planes.push_back({a, hi[i]});
  }
  const double sign = m.sense() == OptSense::kMaximize ? 1.0 : -1.0;
  double best = -kInf;
  std::vector<size_t> pick(n);
  // Every n-subset of the planes, in lexicographic order.
  for (size_t i = 0; i < n; ++i) pick[i] = i;
  while (true) {
    // Solve the n x n system by Gaussian elimination, partial pivoting.
    std::vector<std::vector<double>> sys(n, std::vector<double>(n + 1));
    for (size_t r = 0; r < n; ++r) {
      sys[r].assign(planes[pick[r]].a.begin(), planes[pick[r]].a.end());
      sys[r].push_back(planes[pick[r]].rhs);
    }
    bool singular = false;
    for (size_t col = 0; col < n && !singular; ++col) {
      size_t piv = col;
      for (size_t r = col + 1; r < n; ++r) {
        if (std::fabs(sys[r][col]) > std::fabs(sys[piv][col])) piv = r;
      }
      if (std::fabs(sys[piv][col]) < 1e-9) {
        singular = true;
        break;
      }
      std::swap(sys[col], sys[piv]);
      for (size_t r = 0; r < n; ++r) {
        if (r == col) continue;
        const double f = sys[r][col] / sys[col][col];
        for (size_t k = col; k <= n; ++k) sys[r][k] -= f * sys[col][k];
      }
    }
    if (!singular) {
      std::vector<double> x(n);
      for (size_t i = 0; i < n; ++i) x[i] = sys[i][n] / sys[i][i];
      bool feasible = true;
      for (size_t i = 0; i < n && feasible; ++i) {
        const double tol = 1e-7 * (1.0 + std::fabs(x[i]));
        feasible = x[i] >= m.var_lo()[i] - tol && x[i] <= hi[i] + tol;
      }
      for (const auto& c : m.constraints()) {
        if (!feasible) break;
        double lhs = 0.0, mag = 1.0;
        for (const auto& [v, coef] : c.terms) {
          lhs += coef * x[v];
          mag += std::fabs(coef * x[v]);
        }
        feasible = lhs >= c.lo - 1e-7 * mag && lhs <= c.hi + 1e-7 * mag;
      }
      if (feasible) {
        double z = 0.0;
        for (size_t i = 0; i < n; ++i) z += m.objective()[i] * x[i];
        best = std::max(best, sign * z);
      }
    }
    // Next subset.
    size_t i = n;
    while (i > 0 && pick[i - 1] == planes.size() - n + i - 1) --i;
    if (i == 0) break;
    ++pick[i - 1];
    for (size_t k = i; k < n; ++k) pick[k] = pick[k - 1] + 1;
  }
  return best;
}

/// The LP's status and optimum by vertex enumeration. The feasible
/// region has a vertex whenever it is non-empty (every variable has a
/// finite lower bound), and the data below keep vertex coordinates
/// under 1e4, so an optimum that still grows between caps of 1e5 and
/// 1e7 means the LP is unbounded.
VertexOracle EnumerateVertices(const LpModel& m) {
  VertexOracle out;
  const double near = BestCappedVertex(m, 1e5);
  if (near == -kInf) return out;  // kInfeasible
  const double far = BestCappedVertex(m, 1e7);
  if (far > near + 1e-6 * (1.0 + std::fabs(near))) {
    out.status = SolveStatus::kUnbounded;
    return out;
  }
  out.status = SolveStatus::kOptimal;
  out.objective = m.sense() == OptSense::kMaximize ? near : -near;
  return out;
}

/// A tiny LP with small integer data: up to 4 variables with finite
/// lower bounds and optional upper bounds, and up to 6 rows mixing
/// <=, >=, equality and ranged rows.
LpModel RandomTinyLp(Rng* rng) {
  LpModel m;
  m.set_sense(rng->UniformInt(0, 1) == 0 ? OptSense::kMaximize
                                         : OptSense::kMinimize);
  const size_t n = static_cast<size_t>(rng->UniformInt(1, 4));
  for (size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(rng->UniformInt(-3, 3));
    const double hi = rng->UniformInt(0, 1) == 0
                          ? kInf
                          : lo + static_cast<double>(rng->UniformInt(0, 6));
    m.AddVariable(static_cast<double>(rng->UniformInt(-3, 3)), lo, hi);
  }
  const size_t rows = static_cast<size_t>(rng->UniformInt(0, 6));
  for (size_t r = 0; r < rows; ++r) {
    LinearConstraint c;
    for (size_t i = 0; i < n; ++i) {
      const int64_t coef = rng->UniformInt(-3, 3);
      if (coef != 0) c.terms.push_back({i, static_cast<double>(coef)});
    }
    const double v = static_cast<double>(rng->UniformInt(-10, 10));
    switch (rng->UniformInt(0, 3)) {
      case 0:  // <=
        c.hi = v;
        break;
      case 1:  // >=
        c.lo = v;
        break;
      case 2:  // ==
        c.lo = c.hi = v;
        break;
      default:  // ranged
        c.lo = v;
        c.hi = v + static_cast<double>(rng->UniformInt(1, 8));
        break;
    }
    m.AddConstraint(std::move(c));
  }
  return m;
}

/// Checks `s` against the oracle: same status, and when optimal the
/// same objective at a point that satisfies every row and bound.
void ExpectMatchesOracle(const LpModel& m, const Solution& s,
                         const std::string& where) {
  const VertexOracle oracle = EnumerateVertices(m);
  ASSERT_EQ(SolveStatusToString(s.status),
            std::string(SolveStatusToString(oracle.status)))
      << where << "\n" << m.ToString();
  if (s.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(s.objective, oracle.objective,
              1e-6 * (1.0 + std::fabs(oracle.objective)))
      << where << "\n" << m.ToString();
  ASSERT_EQ(s.x.size(), m.num_variables());
  double z = 0.0;
  for (size_t i = 0; i < m.num_variables(); ++i) {
    EXPECT_GE(s.x[i], m.var_lo()[i] - 1e-6) << where;
    EXPECT_LE(s.x[i], m.var_hi()[i] + 1e-6) << where;
    z += m.objective()[i] * s.x[i];
  }
  EXPECT_NEAR(z, s.objective, 1e-6 * (1.0 + std::fabs(z))) << where;
  for (const auto& c : m.constraints()) {
    double lhs = 0.0;
    for (const auto& [v, coef] : c.terms) lhs += coef * s.x[v];
    EXPECT_GE(lhs, c.lo - 1e-6) << where;
    EXPECT_LE(lhs, c.hi + 1e-6) << where;
  }
}

class SimplexOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimplexOracleTest, ColdAndWarmSolvesMatchVertexEnumeration) {
  Rng rng(GetParam());
  SimplexSolver solver;
  size_t seen[4] = {0, 0, 0, 0};  // per SolveStatus of the cold solve
  size_t warm_used = 0;
  for (int trial = 0; trial < 150; ++trial) {
    LpModel m = RandomTinyLp(&rng);
    const std::string at = "trial " + std::to_string(trial);

    // Cold, once without and once with a basis slot to fill.
    ExpectMatchesOracle(m, solver.Solve(m), at + " cold");
    SimplexSolver::WarmStart warm;
    const Solution first = solver.Solve(m, &warm);
    ExpectMatchesOracle(m, first, at + " cold+extract");
    ++seen[static_cast<int>(first.status)];

    // A warm chain: objective changes, then a branch-and-bound-style
    // bound edit, each solve starting from the basis the previous one
    // left (or cold when it left none).
    std::vector<double> objective(m.num_variables());
    for (int step = 0; step < 4; ++step) {
      const std::string here = at + " step " + std::to_string(step);
      if (step == 3) {
        const size_t v = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(m.num_variables()) - 1));
        const double lo = m.var_lo()[v] + 1.0;
        m.SetVariableBounds(v, lo, std::max(lo, m.var_hi()[v]));
      } else {
        for (double& c : objective) {
          c = static_cast<double>(rng.UniformInt(-3, 3));
        }
        m.SetObjective(objective);
      }
      const Solution s = solver.Solve(m, &warm);
      if (s.warm_used) ++warm_used;
      ExpectMatchesOracle(m, s, here);
    }
  }
  // The draws must reach every outcome and the warm path.
  EXPECT_GT(seen[static_cast<int>(SolveStatus::kOptimal)], 20u);
  EXPECT_GT(seen[static_cast<int>(SolveStatus::kInfeasible)], 5u);
  EXPECT_GT(seen[static_cast<int>(SolveStatus::kUnbounded)], 5u);
  EXPECT_GT(warm_used, 50u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimplexOracleTest,
                         ::testing::Values(7, 8, 9, 10));

}  // namespace
}  // namespace pcx
