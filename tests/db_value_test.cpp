#include "db/value.h"

#include <gtest/gtest.h>

namespace aggchecker {
namespace db {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  Value l(int64_t{42});
  EXPECT_EQ(l.type(), ValueType::kLong);
  EXPECT_EQ(l.AsLong(), 42);
  Value d(2.5);
  EXPECT_EQ(d.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(d.AsDoubleExact(), 2.5);
  Value s(std::string("x"));
  EXPECT_EQ(s.type(), ValueType::kString);
  EXPECT_EQ(s.AsString(), "x");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value(int64_t{3}), Value(3.0));
  EXPECT_NE(Value(int64_t{3}), Value(3.5));
  // Equal values must hash equally (unordered_map invariant).
  EXPECT_EQ(Value(int64_t{3}).Hash(), Value(3.0).Hash());
}

TEST(ValueTest, NullComparesOnlyToNull) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_NE(Value::Null(), Value(int64_t{0}));
  EXPECT_NE(Value::Null(), Value(std::string("")));
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value(int64_t{7}).ToString(), "7");
  EXPECT_EQ(Value(std::string("hi")).ToString(), "hi");
  EXPECT_EQ(Value(2.5).ToString(), "2.5");
}

TEST(ParseCellTest, DetectsTypes) {
  EXPECT_EQ(ParseCell("42").type(), ValueType::kLong);
  EXPECT_EQ(ParseCell("-17").type(), ValueType::kLong);
  EXPECT_EQ(ParseCell("2.5").type(), ValueType::kDouble);
  EXPECT_EQ(ParseCell("1e3").type(), ValueType::kDouble);
  EXPECT_EQ(ParseCell("hello").type(), ValueType::kString);
  EXPECT_EQ(ParseCell("").type(), ValueType::kNull);
  EXPECT_EQ(ParseCell("  ").type(), ValueType::kNull);
  EXPECT_EQ(ParseCell("NA").type(), ValueType::kNull);
  EXPECT_EQ(ParseCell("NULL").type(), ValueType::kNull);
}

TEST(ParseCellTest, ThousandsSeparators) {
  Value v = ParseCell("1,200");
  EXPECT_EQ(v.type(), ValueType::kLong);
  EXPECT_EQ(v.AsLong(), 1200);
}

TEST(ParseCellTest, TrimsWhitespace) {
  EXPECT_EQ(ParseCell("  7 ").AsLong(), 7);
  EXPECT_EQ(ParseCell(" abc ").AsString(), "abc");
}

TEST(ParseCellTest, MixedAlphanumericIsString) {
  EXPECT_EQ(ParseCell("12abc").type(), ValueType::kString);
  EXPECT_EQ(ParseCell("indef").type(), ValueType::kString);
}

}  // namespace
}  // namespace db
}  // namespace aggchecker
