#include <gtest/gtest.h>

#include "pc/pc_set.h"
#include "pc/predicate_constraint.h"

namespace pcx {
namespace {

// Two-attribute schema: a0 = key dimension, a1 = value dimension.
PredicateConstraint MakePc(double pred_lo, double pred_hi, double val_lo,
                           double val_hi, double k_lo, double k_hi) {
  Predicate pred(2);
  pred.AddRange(0, pred_lo, pred_hi);
  Box values(2);
  values.Constrain(1, Interval::Closed(val_lo, val_hi));
  return PredicateConstraint(pred, values,
                             FrequencyConstraint::Between(k_lo, k_hi));
}

Table MakeRows(std::initializer_list<std::pair<double, double>> rows) {
  Table t{Schema({{"key", ColumnType::kDouble},
                  {"value", ColumnType::kDouble}})};
  for (const auto& [k, v] : rows) t.AppendRow({k, v});
  return t;
}

TEST(PredicateConstraintTest, SatisfiedByChecksAllThreeParts) {
  const PredicateConstraint pc = MakePc(0, 10, 0, 100, 1, 3);
  // Two matching rows with values in range: OK.
  EXPECT_TRUE(pc.SatisfiedBy(MakeRows({{5, 50}, {7, 99}, {20, 1000}})));
  // Value out of range: violated.
  EXPECT_FALSE(pc.SatisfiedBy(MakeRows({{5, 101}})));
  // Too many matching rows: violated.
  EXPECT_FALSE(
      pc.SatisfiedBy(MakeRows({{1, 1}, {2, 2}, {3, 3}, {4, 4}})));
  // Too few matching rows (k_lo = 1): violated.
  EXPECT_FALSE(pc.SatisfiedBy(MakeRows({{20, 5}})));
}

TEST(PredicateConstraintTest, ValueBoundsAccessors) {
  const PredicateConstraint pc = MakePc(0, 10, -5, 100, 0, 3);
  EXPECT_EQ(pc.ValueLower(1), -5.0);
  EXPECT_EQ(pc.ValueUpper(1), 100.0);
}

TEST(PredicateConstraintTest, SingleAttributeBuilder) {
  Schema schema({{"key", ColumnType::kDouble},
                 {"value", ColumnType::kDouble}});
  Predicate pred(2);
  pred.AddRange(0, 0.0, 1.0);
  auto pc = MakeSingleAttributeConstraint(schema, pred, "value", 0.0, 9.0,
                                          0.0, 5.0);
  ASSERT_TRUE(pc.ok());
  EXPECT_EQ(pc->ValueUpper(1), 9.0);
  EXPECT_FALSE(MakeSingleAttributeConstraint(schema, pred, "value", 9.0, 0.0,
                                             0.0, 5.0)
                   .ok());
  EXPECT_FALSE(MakeSingleAttributeConstraint(schema, pred, "value", 0.0, 9.0,
                                             5.0, 0.0)
                   .ok());
}

TEST(PcSetTest, SatisfiedByAllConstraints) {
  PredicateConstraintSet set;
  set.Add(MakePc(0, 10, 0, 100, 0, 2));
  set.Add(MakePc(10, 20, 0, 50, 0, 2));
  EXPECT_TRUE(set.SatisfiedBy(MakeRows({{5, 80}, {15, 40}})));
  EXPECT_FALSE(set.SatisfiedBy(MakeRows({{15, 80}})));  // second PC value
}

TEST(PcSetTest, ClosureOverDomain) {
  PredicateConstraintSet set;
  set.Add(MakePc(0, 10, 0, 100, 0, 2));
  set.Add(MakePc(10, 20, 0, 100, 0, 2));
  Box domain(2);
  domain.Constrain(0, Interval::Closed(0.0, 20.0));
  EXPECT_TRUE(set.IsClosedOver(domain));
  Box wider(2);
  wider.Constrain(0, Interval::Closed(0.0, 30.0));
  EXPECT_FALSE(set.IsClosedOver(wider));
}

TEST(PcSetTest, ClosureWithGap) {
  PredicateConstraintSet set;
  set.Add(MakePc(0, 10, 0, 100, 0, 2));
  set.Add(MakePc(12, 20, 0, 100, 0, 2));  // gap (10, 12)
  Box domain(2);
  domain.Constrain(0, Interval::Closed(0.0, 20.0));
  EXPECT_FALSE(set.IsClosedOver(domain));
}

TEST(PcSetTest, DisjointDetection) {
  PredicateConstraintSet disjoint;
  disjoint.Add(MakePc(0, 10, 0, 1, 0, 1));
  disjoint.Add(MakePc(20, 30, 0, 1, 0, 1));
  EXPECT_TRUE(disjoint.PredicatesDisjoint());

  PredicateConstraintSet overlapping;
  overlapping.Add(MakePc(0, 10, 0, 1, 0, 1));
  overlapping.Add(MakePc(5, 30, 0, 1, 0, 1));
  EXPECT_FALSE(overlapping.PredicatesDisjoint());
}

TEST(PcSetTest, HalfOpenPartitionIsDisjoint) {
  // [0, 10) and [10, 20) share only the boundary point 10, which the
  // half-open representation excludes.
  Predicate p1(2), p2(2);
  p1.AddInterval(0, Interval{0.0, 10.0, false, true});
  p2.AddInterval(0, Interval{10.0, 20.0, false, true});
  Box v(2);
  PredicateConstraintSet set;
  set.Add(PredicateConstraint(p1, v, {0, 1}));
  set.Add(PredicateConstraint(p2, v, {0, 1}));
  EXPECT_TRUE(set.PredicatesDisjoint());
}

TEST(PcSetTest, EmptySetProperties) {
  PredicateConstraintSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.num_attrs(), 0u);
  EXPECT_TRUE(set.SatisfiedBy(MakeRows({{1, 1}})));
  EXPECT_TRUE(set.PredicatesDisjoint());
}

}  // namespace
}  // namespace pcx
