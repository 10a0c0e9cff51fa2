#include <gtest/gtest.h>

#include <limits>

#include "pc/bound_solver.h"
#include "pc/combine.h"

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
// ratio search starts its bracket at -1e18 for an unbounded value; its
// feasible end stops about 0.9 short of the optimum, so only the
// infeasible end is a hard upper bound.
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
