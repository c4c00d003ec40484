#include "util/rounding.h"

#include <gtest/gtest.h>

#include <cmath>

namespace aggchecker {
namespace {

using rounding::RoundsTo;
using rounding::RoundToSignificant;
using rounding::SignificantDigitsOf;

TEST(RoundingTest, RoundToSignificantBasics) {
  EXPECT_DOUBLE_EQ(RoundToSignificant(0.1337, 2), 0.13);
  EXPECT_DOUBLE_EQ(RoundToSignificant(1337.0, 2), 1300.0);
  EXPECT_DOUBLE_EQ(RoundToSignificant(1350.0, 2), 1400.0);  // round half up
  EXPECT_DOUBLE_EQ(RoundToSignificant(0.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(RoundToSignificant(-13.6, 2), -14.0);
  EXPECT_DOUBLE_EQ(RoundToSignificant(9.99, 1), 10.0);
}

TEST(RoundingTest, SignificantDigitsOfDouble) {
  EXPECT_EQ(SignificantDigitsOf(4.0), 1);
  EXPECT_EQ(SignificantDigitsOf(63.0), 2);
  EXPECT_EQ(SignificantDigitsOf(13.6), 3);
  EXPECT_EQ(SignificantDigitsOf(1300.0), 2);  // trailing zeros placeholders
  EXPECT_EQ(SignificantDigitsOf(0.005), 1);
  EXPECT_EQ(SignificantDigitsOf(0.0), 1);
}

// The paper's erroneous-claim table (Table 9): 14 claimed as 13 is wrong,
// 63 claimed as 64 is wrong, 4 claimed as "four" (i.e. 4) is right.
TEST(RoundingTest, PaperTable9Examples) {
  EXPECT_FALSE(RoundsTo(14.0, 13.0));  // self-taught percentage typo
  EXPECT_FALSE(RoundsTo(63.0, 64.0));  // candidate count off by one
  EXPECT_TRUE(RoundsTo(4.0, 4.0));
}

TEST(RoundingTest, ExactMatchAlwaysRounds) {
  EXPECT_TRUE(RoundsTo(0.0, 0.0));
  EXPECT_TRUE(RoundsTo(123.456, 123.456));
  EXPECT_TRUE(RoundsTo(-5.0, -5.0));
}

TEST(RoundingTest, RoundsToClaimPrecision) {
  // 13.6% may be claimed as "14 percent" (1-2 significant digits).
  EXPECT_TRUE(RoundsTo(13.6, 14.0));
  // 41.3% claimed as "41 percent".
  EXPECT_TRUE(RoundsTo(41.3, 41.0));
  // 0.847 claimed as "0.85".
  EXPECT_TRUE(RoundsTo(0.847, 0.85));
  // 1234 claimed as "1200".
  EXPECT_TRUE(RoundsTo(1234.0, 1200.0));
  // but 1234 is NOT "1300".
  EXPECT_FALSE(RoundsTo(1234.0, 1300.0));
}

TEST(RoundingTest, SignMismatchNeverRounds) {
  EXPECT_FALSE(RoundsTo(-5.0, 5.0));
  EXPECT_FALSE(RoundsTo(5.0, -5.0));
}

TEST(RoundingTest, NonFiniteNeverRounds) {
  EXPECT_FALSE(RoundsTo(std::nan(""), 1.0));
  EXPECT_FALSE(RoundsTo(1.0, std::nan("")));
  EXPECT_FALSE(RoundsTo(INFINITY, INFINITY));
}

// Property sweep: for any value and digits, rounding the rounded value again
// at the same precision is a fixed point.
class RoundingFixpointTest
    : public ::testing::TestWithParam<std::tuple<double, int>> {};

TEST_P(RoundingFixpointTest, RoundingIsIdempotent) {
  auto [value, digits] = GetParam();
  double once = RoundToSignificant(value, digits);
  double twice = RoundToSignificant(once, digits);
  EXPECT_DOUBLE_EQ(once, twice);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RoundingFixpointTest,
    ::testing::Combine(::testing::Values(0.0, 0.123456, 1.5, 99.99, 1234.5678,
                                         -7.25, 1e6, 3.0e-4),
                       ::testing::Values(1, 2, 3, 5, 10)));

// Property: a value always RoundsTo its own rounding at the precision the
// rounded literal carries.
class RoundsToSelfTest : public ::testing::TestWithParam<double> {};

TEST_P(RoundsToSelfTest, ValueRoundsToItsRounding) {
  double value = GetParam();
  for (int digits = 1; digits <= 6; ++digits) {
    double rounded = RoundToSignificant(value, digits);
    // The rounded form has at most `digits` significant digits, so checking
    // against it must succeed.
    EXPECT_TRUE(RoundsTo(value, rounded))
        << value << " should round to " << rounded;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RoundsToSelfTest,
                         ::testing::Values(0.001234, 0.5, 1.0, 13.6, 41.37,
                                           63.0, 123.456, 9876.54321, 1e5));

}  // namespace
}  // namespace aggchecker
