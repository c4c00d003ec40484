#include "corpus/export.h"

#include <gtest/gtest.h>

#include <filesystem>

#include "claims/claim_detector.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "db/executor.h"
#include "test_fixtures.h"
#include "util/strings.h"

namespace aggchecker {
namespace corpus {
namespace {

namespace fs = std::filesystem;

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           strings::Format("aggchecker_export_test_%d",
                           static_cast<int>(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST(QueryCanonicalKeyTest, RoundTripAllFunctions) {
  using testing_fixtures::CountStar;
  std::vector<db::SimpleAggregateQuery> queries;
  queries.push_back(CountStar("t"));
  queries.push_back(CountStar(
      "t", {{{"t", "Games"}, db::Value(std::string("indef"))},
            {{"t", "Category"}, db::Value(std::string("gambling"))}}));
  {
    db::SimpleAggregateQuery q;
    q.fn = db::AggFn::kAvg;
    q.agg_column = {"t", "Fine"};
    q.predicates = {{{"t", "Year"}, db::Value(int64_t{2014})}};
    queries.push_back(q);
  }
  {
    db::SimpleAggregateQuery q;
    q.fn = db::AggFn::kConditionalProbability;
    q.agg_column = {"t", ""};
    q.predicates = {{{"t", "a"}, db::Value(std::string("x"))},
                    {{"t", "b"}, db::Value(std::string("y"))}};
    queries.push_back(q);
  }
  {
    db::SimpleAggregateQuery q;
    q.fn = db::AggFn::kPercentage;
    q.agg_column = {"t", "Edu"};
    q.predicates = {{{"t", "Edu"}, db::Value(std::string("self-taught"))}};
    queries.push_back(q);
  }
  for (const auto& q : queries) {
    auto parsed = db::SimpleAggregateQuery::FromCanonicalKey(
        q.CanonicalKey());
    ASSERT_TRUE(parsed.ok()) << q.CanonicalKey() << ": "
                             << parsed.status().ToString();
    EXPECT_TRUE(*parsed == q) << q.CanonicalKey() << " vs "
                              << parsed->CanonicalKey();
    EXPECT_EQ(parsed->CanonicalKey(), q.CanonicalKey());
  }
}

TEST(QueryCanonicalKeyTest, ParseErrors) {
  using Q = db::SimpleAggregateQuery;
  EXPECT_FALSE(Q::FromCanonicalKey("").ok());
  EXPECT_FALSE(Q::FromCanonicalKey("Nonsense(t.*)").ok());
  EXPECT_FALSE(Q::FromCanonicalKey("Count(t.*)|badpiece").ok());
  EXPECT_FALSE(Q::FromCanonicalKey("Count").ok());
  EXPECT_FALSE(Q::FromCanonicalKey("Count(nodot)").ok());
}

TEST(DocumentSerializationTest, HtmlRoundTrip) {
  auto original = MakeNflCase();
  std::string html = DocumentToHtml(original.document);
  auto reparsed = text::ParseDocument(html);
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed->title(), original.document.title());
  EXPECT_EQ(reparsed->sentences().size(),
            original.document.sentences().size());
  EXPECT_EQ(reparsed->paragraphs().size(),
            original.document.paragraphs().size());
  EXPECT_EQ(reparsed->sections().size(),
            original.document.sections().size());
  // Claims detected identically.
  claims::ClaimDetector detector;
  EXPECT_EQ(detector.Detect(*reparsed).size(),
            detector.Detect(original.document).size());
}

TEST(TableSerializationTest, CsvRoundTripPreservesTypesAndValues) {
  auto original = MakeNflCase();
  const db::Table& table = original.database.table(0);
  auto data = csv::Parse(TableToCsv(table));
  ASSERT_TRUE(data.ok());
  auto reparsed = db::Table::FromCsv(table.name(), *data);
  ASSERT_TRUE(reparsed.ok());
  ASSERT_EQ(reparsed->num_rows(), table.num_rows());
  ASSERT_EQ(reparsed->num_columns(), table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    EXPECT_EQ(reparsed->column(c).type(), table.column(c).type()) << c;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      EXPECT_EQ(reparsed->column(c).at(r), table.column(c).at(r))
          << "row " << r << " col " << c;
    }
  }
}

TEST_F(ExportTest, ExportImportRoundTrip) {
  auto original = MakeDeveloperSurveyCase();
  ASSERT_TRUE(ExportCase(original, dir_.string()).ok());

  auto imported = ImportCase((dir_ / original.name).string());
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported->name, original.name);
  ASSERT_EQ(imported->ground_truth.size(), original.ground_truth.size());
  for (size_t i = 0; i < original.ground_truth.size(); ++i) {
    const auto& a = original.ground_truth[i];
    const auto& b = imported->ground_truth[i];
    EXPECT_DOUBLE_EQ(a.claimed_value, b.claimed_value) << i;
    EXPECT_NEAR(a.true_value, b.true_value, 1e-9) << i;
    EXPECT_EQ(a.is_erroneous, b.is_erroneous) << i;
    EXPECT_TRUE(a.query == b.query) << i << ": " << b.query.CanonicalKey();
  }
  // Ground-truth queries re-evaluate to the recorded values on the
  // re-imported database.
  db::QueryExecutor exec(&imported->database);
  for (const auto& g : imported->ground_truth) {
    auto r = exec.Execute(g.query);
    ASSERT_TRUE(r.ok()) << g.query.ToSql() << ": "
                        << r.status().ToString();
    ASSERT_TRUE(r->has_value());
    EXPECT_NEAR(**r, g.true_value, 1e-6) << g.query.ToSql();
  }
}

TEST_F(ExportTest, GeneratedCaseRoundTrip) {
  GeneratorOptions options;
  auto original = GenerateCase(11, options);
  ASSERT_TRUE(ExportCase(original, dir_.string()).ok());
  auto imported = ImportCase((dir_ / original.name).string());
  ASSERT_TRUE(imported.ok()) << imported.status().ToString();
  EXPECT_EQ(imported->document.sentences().size(),
            original.document.sentences().size());
  EXPECT_EQ(imported->database.TotalRows(), original.database.TotalRows());
  EXPECT_EQ(imported->ground_truth.size(), original.ground_truth.size());
}

TEST_F(ExportTest, ImportMissingDirectoryFails) {
  EXPECT_FALSE(ImportCase((dir_ / "nonexistent").string()).ok());
}

}  // namespace
}  // namespace corpus
}  // namespace aggchecker
