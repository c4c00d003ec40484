#include "db/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

namespace aggchecker {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMaxD = std::numeric_limits<double>::max();

TEST(AggregateTest, SumOfFiniteValues) {
  db::Aggregator agg(db::AggFn::kSum);
  agg.Add(db::Value(1.5));
  agg.Add(db::Value(int64_t{2}));
  auto r = agg.Finish();
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 3.5);
}

TEST(AggregateTest, SumWithNanIsUndefined) {
  db::Aggregator agg(db::AggFn::kSum);
  agg.Add(db::Value(1.0));
  agg.Add(db::Value(kNan));
  agg.Add(db::Value(2.0));
  EXPECT_FALSE(agg.Finish().has_value());
}

TEST(AggregateTest, SumWithInfinityIsUndefined) {
  db::Aggregator agg(db::AggFn::kSum);
  agg.Add(db::Value(kInf));
  EXPECT_FALSE(agg.Finish().has_value());
}

TEST(AggregateTest, SumOverflowToInfinityIsUndefined) {
  // Both inputs are finite but the running sum saturates to +Inf; a verdict
  // decided by IEEE saturation would be wrong, so the result is undefined.
  db::Aggregator agg(db::AggFn::kSum);
  agg.Add(db::Value(kMaxD));
  agg.Add(db::Value(kMaxD));
  EXPECT_FALSE(agg.Finish().has_value());
}

TEST(AggregateTest, AvgWithNanIsUndefined) {
  db::Aggregator agg(db::AggFn::kAvg);
  agg.Add(db::Value(1.0));
  agg.Add(db::Value(-kNan));
  EXPECT_FALSE(agg.Finish().has_value());
}

TEST(AggregateTest, AvgOfFiniteValuesUnaffected) {
  db::Aggregator agg(db::AggFn::kAvg);
  agg.Add(db::Value(2.0));
  agg.Add(db::Value(4.0));
  auto r = agg.Finish();
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 3.0);
}

TEST(AggregateTest, MinMaxWithNonFiniteIsUndefined) {
  db::Aggregator mn(db::AggFn::kMin);
  mn.Add(db::Value(3.0));
  mn.Add(db::Value(-kInf));
  EXPECT_FALSE(mn.Finish().has_value());

  db::Aggregator mx(db::AggFn::kMax);
  mx.Add(db::Value(kNan));
  mx.Add(db::Value(3.0));
  EXPECT_FALSE(mx.Finish().has_value());
}

TEST(AggregateTest, CountIgnoresNonFinite) {
  // Count counts rows, not magnitudes: poison does not apply. CountDistinct
  // counts each NaN cell as a value of its own (NaN equals nothing).
  db::Aggregator agg(db::AggFn::kCount);
  db::Aggregator distinct(db::AggFn::kCountDistinct);
  for (double v : {kNan, 1.0, kNan, 1.0}) {
    agg.Add(db::Value(v));
    distinct.Add(db::Value(v));
  }
  auto r = agg.Finish();
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 4.0);
  EXPECT_EQ(distinct.Finish(), std::optional<double>(3.0));
}

TEST(AggregateTest, SumOfZeroRowsIsNull) {
  db::Aggregator agg(db::AggFn::kSum);
  EXPECT_FALSE(agg.Finish().has_value());
}

TEST(AggregateTest, NullsAreIgnored) {
  db::Aggregator agg(db::AggFn::kSum);
  agg.Add(db::Value::Null());
  agg.Add(db::Value(5.0));
  auto r = agg.Finish();
  ASSERT_TRUE(r.has_value());
  EXPECT_DOUBLE_EQ(*r, 5.0);
}

}  // namespace
}  // namespace aggchecker
