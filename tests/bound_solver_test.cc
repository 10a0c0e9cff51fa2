#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "pc/bound_solver.h"
#include "pc/combine.h"

#ifdef PCX_HAVE_Z3
#include <z3++.h>
#endif

namespace pcx {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Schema: attr 0 = utc (hours since Nov-11 00:00), attr 1 = price.
PredicateConstraint SalesPc(double utc_lo, double utc_hi, double price_lo,
                            double price_hi, double k_lo, double k_hi) {
  Predicate pred(2);
  pred.AddInterval(0, Interval{utc_lo, utc_hi, false, true});  // [lo, hi)
  Box values(2);
  values.Constrain(1, Interval::Closed(price_lo, price_hi));
  return PredicateConstraint(pred, values, {k_lo, k_hi});
}

TEST(BoundSolverTest, PaperSection44DisjointExample) {
  // t1: Nov-11 [0,24) price [0.99,129.99] freq (50,100)
  // t2: Nov-12 [24,48) price [0.99,149.99] freq (50,100)
  // SUM range = [99.00, 27998.00].
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  pcs.Add(SalesPc(24, 48, 0.99, 149.99, 50, 100));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->lo, 99.00, 1e-6);
  EXPECT_NEAR(range->hi, 27998.00, 1e-6);
  EXPECT_TRUE(solver.last_stats().used_disjoint_fast_path);
}

TEST(BoundSolverTest, PaperSection44DisjointViaMilp) {
  // Same instance with the fast path disabled: the MILP must agree.
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  pcs.Add(SalesPc(24, 48, 0.99, 149.99, 50, 100));
  PcBoundSolver::Options options;
  options.auto_disjoint_fast_path = false;
  PcBoundSolver solver(pcs, {}, options);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->lo, 99.00, 1e-6);
  EXPECT_NEAR(range->hi, 27998.00, 1e-6);
  EXPECT_FALSE(solver.last_stats().used_disjoint_fast_path);
}

TEST(BoundSolverTest, PaperSection44OverlappingExample) {
  // t1: [0,24) price<=129.99 freq (50,100); t2: [0,48) price<=149.99
  // freq (75,125). SUM range = [74.25, 17748.75] (paper works this out).
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  pcs.Add(SalesPc(0, 48, 0.99, 149.99, 75, 125));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->hi, 17748.75, 1e-6);
  EXPECT_NEAR(range->lo, 74.25, 1e-6);
}

TEST(BoundSolverTest, CountBounds) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  pcs.Add(SalesPc(0, 48, 0.99, 149.99, 75, 125));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok());
  // Total rows: t2 bounds overall count to [75, 125]; t1 demands >= 50
  // inside [0,24) which t2's 125 allows.
  EXPECT_NEAR(range->lo, 75.0, 1e-9);
  EXPECT_NEAR(range->hi, 125.0, 1e-9);
}

TEST(BoundSolverTest, QueryPredicateRestrictsRange) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  pcs.Add(SalesPc(24, 48, 0.99, 149.99, 50, 100));
  Predicate day1(2);
  day1.AddInterval(0, Interval{0.0, 24.0, false, true});
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1, day1));
  ASSERT_TRUE(range.ok());
  // Only t1's rows qualify: [50 * 0.99, 100 * 129.99].
  EXPECT_NEAR(range->lo, 49.5, 1e-6);
  EXPECT_NEAR(range->hi, 12999.0, 1e-6);
}

TEST(BoundSolverTest, PartialOverlapDropsMandatoryRows) {
  // Query covers only half of t1's predicate: the 50 mandatory rows may
  // live in the uncovered half, so the lower bound must be 0.
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  Predicate halfday(2);
  halfday.AddInterval(0, Interval{0.0, 12.0, false, true});
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1, halfday));
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->lo, 0.0, 1e-9);
  EXPECT_NEAR(range->hi, 12999.0, 1e-6);
}

TEST(BoundSolverTest, AvgBinarySearch) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 10.0, 20.0, 50, 100));
  pcs.Add(SalesPc(24, 48, 30.0, 40.0, 50, 100));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_TRUE(range.ok());
  // Max AVG: all 100 rows of t2 at 40, minimum 50 rows of t1 at 20:
  // (100*40 + 50*20) / 150 = 33.33...
  EXPECT_NEAR(range->hi, (100.0 * 40.0 + 50.0 * 20.0) / 150.0, 1e-4);
  // Min AVG: 100 rows at 10 plus 50 rows at 30: 16.66...
  EXPECT_NEAR(range->lo, (100.0 * 10.0 + 50.0 * 30.0) / 150.0, 1e-4);
}

TEST(BoundSolverTest, AvgWithZeroLowerFrequencies) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 10.0, 20.0, 0, 100));
  pcs.Add(SalesPc(24, 48, 30.0, 40.0, 0, 100));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_TRUE(range.ok());
  // A single row at the extremes is allowed.
  EXPECT_NEAR(range->hi, 40.0, 1e-4);
  EXPECT_NEAR(range->lo, 10.0, 1e-4);
  EXPECT_TRUE(range->empty_instance_possible);
}

/// One PC: pred {0:[0,10]}, values {1:[v_lo,v_hi]}, freq [1,5].
PredicateConstraintSet OneValuePc(double v_lo, double v_hi) {
  Predicate pred(2);
  pred.AddRange(0, 0.0, 10.0);
  Box values(2);
  values.Constrain(1, Interval::Closed(v_lo, v_hi));
  PredicateConstraintSet pcs;
  pcs.Add(PredicateConstraint(pred, values, {1, 5}));
  return pcs;
}

// One row of value 10.3 is a valid instance, so AVG can be 10.3. The
// ratio search starts at r = -1e18 for an unbounded value, where the
// objective (10.3 - r) rounds away the 10.3; the next step starts from
// the argmax's own ratio, and the served end r + max(F(r), 0) bounds
// every allocation, so it may not fall below 10.3.
TEST(BoundSolverTest, AvgUpperEndIsHardWithUnboundedValues) {
  PcBoundSolver solver(OneValuePc(-kInf, 10.3));
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_TRUE(range.ok());
  EXPECT_GE(range->hi, 10.3);
  const auto max = solver.Bound(AggQuery::Max(1));
  ASSERT_TRUE(max.ok());
  EXPECT_LE(range->hi, max->hi + 1.0);
}

TEST(BoundSolverTest, AvgLowerEndIsHardWithUnboundedValues) {
  PcBoundSolver solver(OneValuePc(-10.3, kInf));
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_TRUE(range.ok());
  EXPECT_LE(range->lo, -10.3);
}

TEST(BoundSolverTest, AvgUpperEndIsHardWithWideValues) {
  PcBoundSolver solver(OneValuePc(-1e12, 10.3));
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_TRUE(range.ok());
  EXPECT_GE(range->hi, 10.3);
}

/// A random tiny instance: 2-4 PCs with closed integer key ranges
/// inside [0, 4] on attr 0, integer value bounds inside [-5, 5] on
/// attr 1 and freq.hi <= 4. With `constrain_aggregate`, a PC predicate
/// may also restrict attr 1, the aggregated attribute, and the instance
/// may carry a WHERE box that restricts attr 1 (and maybe attr 0).
/// `patterns` lists the distinct sets of PCs covering some point of the
/// WHERE: every region between the integer breakpoints holds a point on
/// the 0.5 grid, so sampling that grid finds each region. Rows live
/// only at covered points (closure), with a value in the intersection
/// of their covering PCs' value bounds; a pattern's [v_lo, v_hi] spans
/// the grid values its points admit.
struct TinyAvgInstance {
  struct Pattern {
    std::vector<size_t> covering;
    double v_lo = 0.0, v_hi = 0.0;
  };
  PredicateConstraintSet pcs;
  std::optional<Predicate> where;
  /// Frequency lower bounds; a PC the WHERE does not cover keeps none,
  /// since its mandatory rows may lie outside the WHERE.
  std::vector<double> f_lo, f_hi;
  std::vector<Pattern> patterns;  ///< only those a row can occupy
  /// A predicate or the WHERE restricts attr 1.
  bool aggregate_constrained = false;
};

TinyAvgInstance RandomTinyAvgInstance(Rng& rng,
                                      bool constrain_aggregate = false) {
  TinyAvgInstance inst;
  const size_t n = static_cast<size_t>(rng.UniformInt(2, 4));
  std::vector<std::pair<double, double>> vals;
  for (size_t j = 0; j < n; ++j) {
    const int64_t a = rng.UniformInt(0, 3);
    const int64_t b = rng.UniformInt(a, 4);
    const int64_t lo = rng.UniformInt(-5, 5);
    const int64_t hi = rng.UniformInt(lo, 5);
    const int64_t f_hi = rng.UniformInt(1, 4);
    const int64_t f_lo = rng.Bernoulli(0.5) ? 0 : rng.UniformInt(0, f_hi);
    Predicate pred(2);
    pred.AddRange(0, static_cast<double>(a), static_cast<double>(b));
    if (constrain_aggregate && rng.Bernoulli(0.5)) {
      const int64_t c = rng.UniformInt(-5, 5);
      pred.AddRange(1, static_cast<double>(c),
                    static_cast<double>(rng.UniformInt(c, 5)));
      inst.aggregate_constrained = true;
    }
    Box values(2);
    values.Constrain(1, Interval::Closed(static_cast<double>(lo),
                                         static_cast<double>(hi)));
    inst.pcs.Add(PredicateConstraint(
        pred, values,
        {static_cast<double>(f_lo), static_cast<double>(f_hi)}));
    vals.push_back({static_cast<double>(lo), static_cast<double>(hi)});
    inst.f_lo.push_back(static_cast<double>(f_lo));
    inst.f_hi.push_back(static_cast<double>(f_hi));
  }
  if (constrain_aggregate && rng.Bernoulli(0.75)) {
    Predicate where(2);
    const int64_t c = rng.UniformInt(-5, 5);
    where.AddRange(1, static_cast<double>(c),
                   static_cast<double>(rng.UniformInt(c, 5)));
    if (rng.Bernoulli(0.5)) {
      const int64_t a = rng.UniformInt(0, 4);
      where.AddRange(0, static_cast<double>(a),
                     static_cast<double>(rng.UniformInt(a, 4)));
    }
    for (size_t j = 0; j < n; ++j) {
      if (!where.box().Covers(inst.pcs.at(j).predicate().box())) {
        inst.f_lo[j] = 0.0;
      }
    }
    inst.where = where;
    inst.aggregate_constrained = true;
  }
  std::set<std::vector<size_t>> seen;
  for (double key = 0.0; key <= 4.0; key += 0.5) {
    for (double v = -5.0; v <= 5.0; v += 0.5) {
      if (inst.where.has_value() && !inst.where->Matches({key, v})) continue;
      std::vector<size_t> covering;
      bool admitted = true;
      for (size_t j = 0; j < n; ++j) {
        if (inst.pcs.at(j).predicate().Matches({key, v})) {
          covering.push_back(j);
          admitted = admitted && vals[j].first <= v && v <= vals[j].second;
        }
      }
      if (covering.empty() || !admitted) continue;
      if (seen.insert(covering).second) {
        inst.patterns.push_back({std::move(covering), v, v});
        continue;
      }
      for (TinyAvgInstance::Pattern& p : inst.patterns) {
        if (p.covering != covering) continue;
        p.v_lo = std::min(p.v_lo, v);
        p.v_hi = std::max(p.v_hi, v);
      }
    }
  }
  return inst;
}

/// The exact ranges over every valid allocation: SUM over all of them,
/// the others over those with >= 1 row. Each row takes any value its
/// pattern admits, so only the pattern's ends matter.
struct TinyAvgTruth {
  bool feasible = false;  ///< some valid allocation exists
  bool any_row = false;   ///< some valid allocation has >= 1 row
  double max_avg = -kInf, min_avg = kInf;
  double max_sum = -kInf, min_sum = kInf;
  double max_max = -kInf, min_max = kInf;
  double max_min = -kInf, min_min = kInf;
};

/// Enumerates every allocation of rows to patterns within the PCs'
/// frequency bounds. All sums are small integers, so they are exact.
TinyAvgTruth EnumerateAvg(const TinyAvgInstance& inst) {
  TinyAvgTruth truth;
  std::vector<double> per_pc(inst.f_hi.size(), 0.0);
  std::vector<int> count(inst.patterns.size(), 0);
  double rows = 0.0, sum_hi = 0.0, sum_lo = 0.0;
  std::function<void(size_t)> visit = [&](size_t p) {
    if (p == inst.patterns.size()) {
      for (size_t j = 0; j < per_pc.size(); ++j) {
        if (per_pc[j] < inst.f_lo[j]) return;
      }
      truth.feasible = true;
      truth.max_sum = std::max(truth.max_sum, sum_hi);
      truth.min_sum = std::min(truth.min_sum, sum_lo);
      if (rows < 1.0) return;
      truth.any_row = true;
      truth.max_avg = std::max(truth.max_avg, sum_hi / rows);
      truth.min_avg = std::min(truth.min_avg, sum_lo / rows);
      // Over the occupied patterns: the largest value a row can take,
      // the least the largest row must take, and so on for MIN.
      double hi_of_hi = -kInf, hi_of_lo = -kInf;
      double lo_of_hi = kInf, lo_of_lo = kInf;
      for (size_t q = 0; q < count.size(); ++q) {
        if (count[q] == 0) continue;
        hi_of_hi = std::max(hi_of_hi, inst.patterns[q].v_hi);
        hi_of_lo = std::max(hi_of_lo, inst.patterns[q].v_lo);
        lo_of_hi = std::min(lo_of_hi, inst.patterns[q].v_hi);
        lo_of_lo = std::min(lo_of_lo, inst.patterns[q].v_lo);
      }
      truth.max_max = std::max(truth.max_max, hi_of_hi);
      truth.min_max = std::min(truth.min_max, hi_of_lo);
      truth.max_min = std::max(truth.max_min, lo_of_hi);
      truth.min_min = std::min(truth.min_min, lo_of_lo);
      return;
    }
    const TinyAvgInstance::Pattern& pat = inst.patterns[p];
    for (int c = 0;; ++c) {
      bool fits = true;
      for (size_t j : pat.covering) fits = fits && per_pc[j] + c <= inst.f_hi[j];
      if (!fits) break;
      for (size_t j : pat.covering) per_pc[j] += c;
      count[p] = c;
      rows += c;
      sum_hi += c * pat.v_hi;
      sum_lo += c * pat.v_lo;
      visit(p + 1);
      for (size_t j : pat.covering) per_pc[j] -= c;
      count[p] = 0;
      rows -= c;
      sum_hi -= c * pat.v_hi;
      sum_lo -= c * pat.v_lo;
    }
  };
  visit(0);
  return truth;
}

TEST(BoundSolverTest, AvgMatchesEnumerationOnTinyInstances) {
  Rng rng(2024);
  size_t defined = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const TinyAvgInstance inst = RandomTinyAvgInstance(rng);
    const TinyAvgTruth truth = EnumerateAvg(inst);
    PcBoundSolver solver(inst.pcs);
    const auto range = solver.Bound(AggQuery::Avg(1));
    ASSERT_TRUE(range.ok()) << "trial " << trial << ": "
                            << range.status().ToString();
    ASSERT_EQ(range->defined, truth.any_row) << "trial " << trial;
    if (!truth.any_row) continue;
    ++defined;
    const double tol_hi = 1e-9 * std::max(1.0, std::fabs(truth.max_avg));
    const double tol_lo = 1e-9 * std::max(1.0, std::fabs(truth.min_avg));
    EXPECT_GE(range->hi, truth.max_avg) << "trial " << trial;
    EXPECT_LE(range->hi - truth.max_avg, tol_hi) << "trial " << trial;
    EXPECT_LE(range->lo, truth.min_avg) << "trial " << trial;
    EXPECT_LE(truth.min_avg - range->lo, tol_lo) << "trial " << trial;
  }
  // The draw must exercise both verdicts.
  EXPECT_GT(defined, 100u);
  EXPECT_LT(defined, 300u);
}

// Predicates and a WHERE that restrict the aggregated attribute itself:
// every served range must enclose the enumerated one, on the disjoint
// fast path and on the MILP path. Cells take their value interval from
// a box hull, so a predicate on attr 1 may widen a range (a cell "in A
// but not in B" keeps A's whole value box); without one the ranges are
// exact.
TEST(BoundSolverTest, RangesEncloseEnumerationWhenPredicatesConstrainTheValue) {
  Rng rng(2025);
  PcBoundSolver::Options milp_only;
  milp_only.auto_disjoint_fast_path = false;
  size_t constrained = 0, disjoint = 0, with_rows = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const TinyAvgInstance inst =
        RandomTinyAvgInstance(rng, /*constrain_aggregate=*/true);
    const TinyAvgTruth truth = EnumerateAvg(inst);
    if (inst.aggregate_constrained) ++constrained;
    if (inst.pcs.PredicatesDisjoint()) ++disjoint;
    if (truth.any_row) ++with_rows;
    const double tol = 1e-9;
    auto expect_encloses = [&](double lo, double hi, double truth_lo,
                               double truth_hi, const std::string& what) {
      EXPECT_LE(lo, truth_lo + tol) << what;
      EXPECT_GE(hi, truth_hi - tol) << what;
      if (!inst.aggregate_constrained) {
        EXPECT_NEAR(lo, truth_lo, tol) << what << " (exact case)";
        EXPECT_NEAR(hi, truth_hi, tol) << what << " (exact case)";
      }
    };
    const PcBoundSolver fast(inst.pcs);
    const PcBoundSolver milp(inst.pcs, {}, milp_only);
    for (const PcBoundSolver* solver : {&fast, &milp}) {
      const std::string tag =
          "trial " + std::to_string(trial) +
          (solver == &fast ? " default" : " milp-only");
      for (AggFunc agg : {AggFunc::kMin, AggFunc::kMax, AggFunc::kAvg}) {
        const std::string what = tag + " " + AggFuncToString(agg);
        const auto range = solver->Bound(AggQuery{agg, 1, inst.where});
        EXPECT_TRUE(range.ok()) << what << ": " << range.status().ToString();
        if (!range.ok() || !truth.any_row) continue;
        EXPECT_TRUE(range->defined) << what;
        if (!range->defined) continue;
        if (agg == AggFunc::kMin) {
          expect_encloses(range->lo, range->hi, truth.min_min, truth.max_min,
                          what);
        } else if (agg == AggFunc::kMax) {
          expect_encloses(range->lo, range->hi, truth.min_max, truth.max_max,
                          what);
        } else {
          EXPECT_LE(range->lo, truth.min_avg + tol) << what;
          EXPECT_GE(range->hi, truth.max_avg - tol) << what;
        }
      }
      if (!truth.feasible) continue;
      const auto sum = solver->Bound(AggQuery::Sum(1, inst.where));
      EXPECT_TRUE(sum.ok()) << tag << " SUM: " << sum.status().ToString();
      if (!sum.ok()) continue;
      EXPECT_EQ(solver->last_stats().used_disjoint_fast_path,
                solver == &fast && inst.pcs.PredicatesDisjoint())
          << tag;
      expect_encloses(sum->lo, sum->hi, truth.min_sum, truth.max_sum,
                      tag + " SUM");
    }
  }
  // The draw must exercise every case it exists for.
  EXPECT_GT(constrained, 200u);
  EXPECT_GT(disjoint, 30u);
  EXPECT_GT(with_rows, 100u);
}

#ifdef PCX_HAVE_Z3
/// The exact rational value of a finite double, as a Z3 real: m / 2^k
/// (or m * 2^k) with the 53-bit integer mantissa m.
z3::expr ExactReal(z3::context& ctx, double v) {
  int exp = 0;
  const double frac = std::frexp(v, &exp);
  const int64_t mantissa = static_cast<int64_t>(std::ldexp(frac, 53));
  exp -= 53;
  // Decimal 2^|exp| by repeated doubling (little-endian digits).
  std::vector<int> digits = {1};
  for (int i = 0; i < std::abs(exp); ++i) {
    int carry = 0;
    for (int& d : digits) {
      d = d * 2 + carry;
      carry = d / 10;
      d %= 10;
    }
    if (carry > 0) digits.push_back(carry);
  }
  std::string pow2;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    pow2 += static_cast<char>('0' + *it);
  }
  const z3::expr m = ctx.real_val(std::to_string(mantissa).c_str());
  const z3::expr p = ctx.real_val(pow2.c_str());
  return exp < 0 ? m / p : m * p;
}
#endif

// In exact rationals, no valid integer allocation with >= 1 row beats
// the served ends: sum(v_hi * x) > hi * sum(x) and sum(v_lo * x) <
// lo * sum(x) are both unsatisfiable.
TEST(BoundSolverTest, AvgEndsAreHardInExactRationals) {
#ifndef PCX_HAVE_Z3
  GTEST_SKIP() << "built without libz3";
#else
  Rng rng(77);
  for (int trial = 0; trial < 120; ++trial) {
    const TinyAvgInstance inst = RandomTinyAvgInstance(rng);
    PcBoundSolver solver(inst.pcs);
    const auto range = solver.Bound(AggQuery::Avg(1));
    ASSERT_TRUE(range.ok()) << "trial " << trial;
    if (!range->defined) continue;
    z3::context ctx;
    z3::solver s(ctx);
    z3::expr rows = ctx.real_val(0);
    z3::expr sum_hi = ctx.real_val(0), sum_lo = ctx.real_val(0);
    std::vector<z3::expr> per_pc(inst.f_hi.size(), ctx.int_val(0));
    for (size_t p = 0; p < inst.patterns.size(); ++p) {
      const TinyAvgInstance::Pattern& pat = inst.patterns[p];
      const z3::expr x = ctx.int_const(("x" + std::to_string(p)).c_str());
      s.add(x >= 0);
      for (size_t j : pat.covering) per_pc[j] = per_pc[j] + x;
      const z3::expr xr = z3::to_real(x);
      rows = rows + xr;
      sum_hi = sum_hi + ExactReal(ctx, pat.v_hi) * xr;
      sum_lo = sum_lo + ExactReal(ctx, pat.v_lo) * xr;
    }
    for (size_t j = 0; j < per_pc.size(); ++j) {
      s.add(per_pc[j] >= ctx.int_val(static_cast<int>(inst.f_lo[j])));
      s.add(per_pc[j] <= ctx.int_val(static_cast<int>(inst.f_hi[j])));
    }
    s.add(rows >= 1);
    s.push();
    s.add(sum_hi > ExactReal(ctx, range->hi) * rows);
    EXPECT_EQ(s.check(), z3::unsat) << "hi end beaten, trial " << trial;
    s.pop();
    s.add(sum_lo < ExactReal(ctx, range->lo) * rows);
    EXPECT_EQ(s.check(), z3::unsat) << "lo end beaten, trial " << trial;
  }
#endif
}

// A PC without a frequency cap makes the ratio program unbounded at
// the first step, so AVG falls back to the bisection. Pins its bytes:
// the upper end is the bracket's infeasible end, (10*40 + 5*20) / 15
// = 33.33... rounded up by the 1e-9 bracket.
TEST(BoundSolverTest, AvgUnboundedFrequencyFallsBackToBisection) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 10.0, 20.0, 0, kInf));
  pcs.Add(SalesPc(24, 48, 30.0, 40.0, 0, 10));
  pcs.Add(SalesPc(0, 48, 0.0, 100.0, 15, kInf));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->hi, 0x1.0aaaaaaaaep+5);
  EXPECT_EQ(range->lo, 0x1.4p+3);  // 10: the lower bracket never moves
  EXPECT_TRUE(range->defined);
}

// With no branch-and-bound node budget every step stops at the node
// limit, so AVG falls back to the bisection, which reports the limit.
TEST(BoundSolverTest, AvgNodeLimitFallsBackToBisection) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 10.0, 20.0, 50, 100));
  pcs.Add(SalesPc(12, 36, 30.0, 40.0, 0, 100));
  PcBoundSolver::Options options;
  options.milp.max_nodes = 0;
  PcBoundSolver solver(pcs, {}, options);
  const auto range = solver.Bound(AggQuery::Avg(1));
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().ToString(),
            "RESOURCE_EXHAUSTED: MILP node/iteration limit reached");
}

TEST(BoundSolverTest, MinMaxBounds) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 10.0, 20.0, 50, 100));
  pcs.Add(SalesPc(24, 48, 30.0, 40.0, 50, 100));
  PcBoundSolver solver(pcs);
  const auto max_range = solver.Bound(AggQuery::Max(1));
  ASSERT_TRUE(max_range.ok());
  // Rows are mandatory in both PCs: the max is at least 30 (the t2 rows
  // cannot go below 30) and at most 40.
  EXPECT_NEAR(max_range->hi, 40.0, 1e-9);
  EXPECT_NEAR(max_range->lo, 30.0, 1e-9);

  const auto min_range = solver.Bound(AggQuery::Min(1));
  ASSERT_TRUE(min_range.ok());
  EXPECT_NEAR(min_range->lo, 10.0, 1e-9);
  EXPECT_NEAR(min_range->hi, 20.0, 1e-9);
}

TEST(BoundSolverTest, MaxRespectsFrequencyInteraction) {
  // The high-value cell cannot be occupied: t_outer allows at most 2
  // rows overall and t_inner demands at least 2 rows in the low region.
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 10, 0.0, 5.0, 2, 2));     // inner: exactly 2 low rows
  pcs.Add(SalesPc(0, 48, 0.0, 100.0, 0, 2));   // outer: at most 2 rows
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Max(1));
  ASSERT_TRUE(range.ok());
  // Both rows are forced into the inner cell (value <= 5): cells in
  // [10,48) can never host a row.
  EXPECT_NEAR(range->hi, 5.0, 1e-9);
}

TEST(BoundSolverTest, ProhibitedOccupancyWithoutCheckIsLooser) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 10, 0.0, 5.0, 2, 2));
  pcs.Add(SalesPc(0, 48, 0.0, 100.0, 0, 2));
  PcBoundSolver::Options options;
  options.check_cell_occupancy = false;
  PcBoundSolver solver(pcs, {}, options);
  const auto range = solver.Bound(AggQuery::Max(1));
  ASSERT_TRUE(range.ok());
  // Paper's simplification ("assuming all cells are feasible"): takes
  // the largest cell bound, which is looser but still a bound.
  EXPECT_NEAR(range->hi, 100.0, 1e-9);
}

TEST(BoundSolverTest, InfeasibleConstraintSetReported) {
  // A PC demanding 5 rows inside a region capped at 2 rows by another.
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 10, 0.0, 5.0, 5, 5));
  pcs.Add(SalesPc(0, 48, 0.0, 100.0, 0, 2));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_FALSE(range.ok());
  EXPECT_EQ(range.status().code(), StatusCode::kInfeasible);
}

TEST(BoundSolverTest, ConflictingValueConstraintsExcludeCell) {
  // Overlap region demands price <= 5 and price >= 10 simultaneously:
  // no row can exist there, so allocations avoid it.
  Predicate p1(2);
  p1.AddInterval(0, Interval{0.0, 20.0, false, true});
  Box v1(2);
  v1.Constrain(1, Interval::Closed(0.0, 5.0));
  Predicate p2(2);
  p2.AddInterval(0, Interval{10.0, 30.0, false, true});
  Box v2(2);
  v2.Constrain(1, Interval::Closed(10.0, 50.0));
  PredicateConstraintSet pcs;
  pcs.Add(PredicateConstraint(p1, v1, {0, 10}));
  pcs.Add(PredicateConstraint(p2, v2, {0, 10}));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());
  // Max: 10 rows at 5 in [0,10) plus 10 rows at 50 in [20,30).
  EXPECT_NEAR(range->hi, 10 * 5.0 + 10 * 50.0, 1e-6);
}

TEST(BoundSolverTest, EmptyConstraintSet) {
  PredicateConstraintSet pcs;
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(0));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->lo, 0.0);
  EXPECT_EQ(range->hi, 0.0);
}

TEST(BoundSolverTest, CountLowerFromMandatoryRows) {
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.0, 10.0, 7, 20));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Count());
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->lo, 7.0, 1e-9);
  EXPECT_NEAR(range->hi, 20.0, 1e-9);
  EXPECT_FALSE(range->empty_instance_possible);
}

TEST(BoundSolverTest, NegativeValuesLowerSum) {
  // Values may be negative: the minimum SUM allocates the maximum
  // number of rows at the most negative value.
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, -50.0, 10.0, 0, 4));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->lo, -200.0, 1e-6);
  EXPECT_NEAR(range->hi, 40.0, 1e-6);
}

TEST(BoundSolverTest, TightnessWitness) {
  // The bound is attained by an actual relation instance (tightness):
  // build the maximizing instance and check it satisfies the PC set.
  PredicateConstraintSet pcs;
  pcs.Add(SalesPc(0, 24, 0.99, 129.99, 50, 100));
  pcs.Add(SalesPc(0, 48, 0.99, 149.99, 75, 125));
  PcBoundSolver solver(pcs);
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());

  Table witness{Schema({{"utc", ColumnType::kDouble},
                        {"price", ColumnType::kDouble}})};
  // 50 rows at price 129.99 on day 1, 75 rows at 149.99 on day 2.
  for (int i = 0; i < 50; ++i) witness.AppendRow({1.0, 129.99});
  for (int i = 0; i < 75; ++i) witness.AppendRow({30.0, 149.99});
  EXPECT_TRUE(pcs.SatisfiedBy(witness));
  double sum = 0.0;
  for (size_t r = 0; r < witness.num_rows(); ++r) {
    sum += witness.At(r, 1);
  }
  EXPECT_NEAR(sum, range->hi, 1e-6);
}

TEST(BoundSolverTest, IndependentSetStyleInteraction) {
  // Path graph v1 - v2 - v3 encoded as PCs (paper Proposition 4.1):
  // vertex constraints allow one unit-value row each; edge constraints
  // cap each adjacent pair at one row total. Max SUM = 2 (v1 and v3).
  auto vertex = [](double v) {
    Predicate p(2);
    p.AddEquals(0, v);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 1.0));
    return PredicateConstraint(p, values, {0, 1});
  };
  auto edge = [](double lo, double hi) {
    Predicate p(2);
    p.AddRange(0, lo, hi);
    Box values(2);
    values.Constrain(1, Interval::Closed(0.0, 1.0));
    return PredicateConstraint(p, values, {0, 1});
  };
  PredicateConstraintSet pcs;
  pcs.Add(vertex(1));
  pcs.Add(vertex(2));
  pcs.Add(vertex(3));
  pcs.Add(edge(1, 2));
  pcs.Add(edge(2, 3));
  PcBoundSolver solver(pcs, {AttrDomain::kInteger, AttrDomain::kContinuous});
  const auto range = solver.Bound(AggQuery::Sum(1));
  ASSERT_TRUE(range.ok());
  EXPECT_NEAR(range->hi, 2.0, 1e-6);
}

TEST(CombineTest, SumAndCountAdd) {
  AggregateResult observed;
  observed.value = 100.0;
  observed.num_rows = 10;
  ResultRange missing;
  missing.lo = 5.0;
  missing.hi = 20.0;
  const ResultRange total =
      CombineWithObserved(AggFunc::kSum, observed, missing);
  EXPECT_EQ(total.lo, 105.0);
  EXPECT_EQ(total.hi, 120.0);
}

TEST(CombineTest, MaxEnvelope) {
  AggregateResult observed;
  observed.value = 50.0;
  observed.num_rows = 10;
  ResultRange missing;
  missing.lo = 10.0;
  missing.hi = 80.0;
  missing.empty_instance_possible = true;
  const ResultRange total =
      CombineWithObserved(AggFunc::kMax, observed, missing);
  EXPECT_EQ(total.lo, 50.0);  // empty missing keeps observed max
  EXPECT_EQ(total.hi, 80.0);
}

TEST(CombineTest, AvgUsesCornerAnalysis) {
  AggregateResult observed;
  observed.value = 10.0;  // mean of 10 rows -> sum 100
  observed.num_rows = 10;
  ResultRange missing_avg;
  missing_avg.lo = 0.0;
  missing_avg.hi = 30.0;
  ResultRange missing_count;
  missing_count.lo = 0.0;
  missing_count.hi = 10.0;
  const ResultRange total = CombineWithObserved(
      AggFunc::kAvg, observed, missing_avg, &missing_count);
  // Extremes: all 10 missing at 30 -> (100+300)/20 = 20;
  //           all 10 missing at 0 -> 100/20 = 5.
  EXPECT_NEAR(total.hi, 20.0, 1e-9);
  EXPECT_NEAR(total.lo, 5.0, 1e-9);
}

}  // namespace
}  // namespace pcx
