// Failure-injection and odd-input robustness: the pipeline must degrade
// gracefully — never crash, never mis-handle — on hostile or degenerate
// inputs.

#include <gtest/gtest.h>

#include "core/aggchecker.h"
#include "corpus/export.h"
#include "fragments/catalog.h"
#include "text/document.h"
#include "util/strings.h"

namespace aggchecker {
namespace {

db::Database SingleColumnDb(std::vector<db::Value> values,
                            const char* column = "x") {
  db::Database database("d");
  db::Table t("data");
  (void)t.AddColumn(column, values.empty() || values[0].is_numeric()
                                ? db::ValueType::kLong
                                : db::ValueType::kString);
  for (auto& v : values) (void)t.AddRow({std::move(v)});
  (void)database.AddTable(std::move(t));
  return database;
}

TEST(RobustnessTest, EmptyTableChecks) {
  db::Database database("d");
  db::Table t("empty");
  (void)t.AddColumn("col", db::ValueType::kString);
  (void)database.AddTable(std::move(t));
  auto doc = text::ParseDocument("There are 5 things here.");
  auto checker = core::AggChecker::Create(&database);
  ASSERT_TRUE(checker.ok());
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdicts.size(), 1u);
  // Nothing in an empty table evaluates to 5; the claim is flagged.
  EXPECT_TRUE(report->verdicts[0].likely_erroneous);
}

TEST(RobustnessTest, AllNullColumn) {
  auto database = SingleColumnDb(
      {db::Value::Null(), db::Value::Null(), db::Value::Null()});
  auto doc = text::ParseDocument("The data lists 3 rows overall.");
  auto checker = core::AggChecker::Create(&database);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->verdicts[0].likely_erroneous);  // Count(*) = 3
}

TEST(RobustnessTest, HostileColumnAndValueNames) {
  db::Database database("d");
  db::Table t("weird");
  ASSERT_TRUE(t.AddColumn("col with spaces", db::ValueType::kString).ok());
  ASSERT_TRUE(t.AddColumn("sum|agg='x'", db::ValueType::kString).ok());
  (void)t.AddRow({db::Value(std::string("va'l,ue")),
                  db::Value(std::string("<tag>"))});
  (void)t.AddRow({db::Value(std::string("")),
                  db::Value(std::string("indef"))});
  (void)database.AddTable(std::move(t));
  auto doc = text::ParseDocument("Our weird table has 2 rows in it.");
  auto checker = core::AggChecker::Create(&database);
  ASSERT_TRUE(checker.ok());
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->verdicts[0].likely_erroneous);
  // Export round-trips hostile content too (quoted CSV).
  std::string csv_text =
      corpus::TableToCsv(*database.FindTable("weird"));
  auto parsed = csv::Parse(csv_text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows[0][0], "va'l,ue");
}

TEST(RobustnessTest, VeryLongSentenceAndHugeNumbers) {
  auto database = SingleColumnDb({db::Value(int64_t{1}),
                                  db::Value(int64_t{2})});
  std::string longsent = "The value was 99999999999999 units";
  for (int i = 0; i < 200; ++i) longsent += " and more words keep coming";
  longsent += ".";
  auto doc = text::ParseDocument(longsent);
  ASSERT_TRUE(doc.ok());
  auto checker = core::AggChecker::Create(&database);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdicts.size(), 1u);
  EXPECT_TRUE(report->verdicts[0].likely_erroneous);
}

TEST(RobustnessTest, ClaimDenseDocument) {
  // 60 claims in one paragraph; the checker must stay bounded and aligned.
  auto database = SingleColumnDb({db::Value(int64_t{7})});
  std::string text;
  for (int i = 0; i < 60; ++i) {
    text += strings::Format("Metric number %d was reported. ", 100 + i);
  }
  auto doc = text::ParseDocument(text);
  auto checker = core::AggChecker::Create(&database);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdicts.size(), 60u);
}

TEST(RobustnessTest, LiteralCapZeroDisablesPredicates) {
  auto database = SingleColumnDb({db::Value(std::string("a")),
                                  db::Value(std::string("b"))});
  core::CheckOptions options;
  options.catalog.max_literals_per_column = 0;
  auto checker = core::AggChecker::Create(&database, options);
  ASSERT_TRUE(checker.ok());
  EXPECT_TRUE(checker->catalog()
                  .fragments(fragments::FragmentType::kPredicate)
                  .empty());
  auto doc = text::ParseDocument("The data lists 2 rows in total.");
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->verdicts[0].likely_erroneous);
}

TEST(RobustnessTest, UnicodeTextPassesThrough) {
  auto database = SingleColumnDb({db::Value(std::string("café")),
                                  db::Value(std::string("naïve"))});
  auto doc = text::ParseDocument(
      "Das Dokument enthält 2 Zeilen — naïve café entries.");
  ASSERT_TRUE(doc.ok());
  auto checker = core::AggChecker::Create(&database);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdicts.size(), 1u);
}

TEST(RobustnessTest, DocumentWithOnlyHeadlines) {
  EXPECT_FALSE(text::ParseDocument("<h1>Title</h1>\n<h2>Empty</h2>\n").ok());
}

TEST(RobustnessTest, WideTableManyColumns) {
  // 60 columns (Stack Overflow's survey has 154): catalog stays bounded.
  db::Database database("wide");
  db::Table t("survey");
  for (int c = 0; c < 60; ++c) {
    (void)t.AddColumn(strings::Format("q%d", c), db::ValueType::kLong);
  }
  for (int r = 0; r < 20; ++r) {
    std::vector<db::Value> row;
    for (int c = 0; c < 60; ++c) {
      row.emplace_back(static_cast<int64_t>(r * c % 7));
    }
    (void)t.AddRow(std::move(row));
  }
  (void)database.AddTable(std::move(t));
  auto checker = core::AggChecker::Create(&database);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument("The survey covers 20 respondents.");
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->verdicts[0].likely_erroneous);
}

}  // namespace
}  // namespace aggchecker
