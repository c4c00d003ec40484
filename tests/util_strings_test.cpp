#include "util/strings.h"

#include <gtest/gtest.h>

namespace aggchecker {
namespace {

using strings::Split;
using strings::SplitWhitespace;
using strings::ToLower;
using strings::Trim;

TEST(StringsTest, ToLowerBasic) {
  EXPECT_EQ(ToLower("AbC dEf"), "abc def");
  EXPECT_EQ(ToLower(""), "");
  EXPECT_EQ(ToLower("123-XYZ"), "123-xyz");
}

TEST(StringsTest, TrimBothEnds) {
  EXPECT_EQ(Trim("  hello  "), "hello");
  EXPECT_EQ(Trim("\t\nx\r "), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split(",a,", ','), (std::vector<std::string>{"", "a", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringsTest, SplitWhitespaceDropsEmpty) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringsTest, StartsEndsWith) {
  EXPECT_TRUE(strings::StartsWith("foobar", "foo"));
  EXPECT_FALSE(strings::StartsWith("fo", "foo"));
  EXPECT_TRUE(strings::EndsWith("foobar", "bar"));
  EXPECT_FALSE(strings::EndsWith("ar", "bar"));
  EXPECT_TRUE(strings::StartsWith("x", ""));
}

TEST(StringsTest, IsDigits) {
  EXPECT_TRUE(strings::IsDigits("0123"));
  EXPECT_FALSE(strings::IsDigits(""));
  EXPECT_FALSE(strings::IsDigits("12a"));
  EXPECT_FALSE(strings::IsDigits("-12"));
}

TEST(StringsTest, ReplaceAll) {
  EXPECT_EQ(strings::ReplaceAll("a,b,,c", ",", ";"), "a;b;;c");
  EXPECT_EQ(strings::ReplaceAll("aaa", "aa", "b"), "ba");
  EXPECT_EQ(strings::ReplaceAll("x", "", "y"), "x");
}

TEST(StringsTest, Format) {
  EXPECT_EQ(strings::Format("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strings::Format("%.2f", 3.14159), "3.14");
}

}  // namespace
}  // namespace aggchecker
