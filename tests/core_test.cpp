#include "core/aggchecker.h"

#include <gtest/gtest.h>

#include "core/markup.h"
#include "core/query_describer.h"
#include "test_fixtures.h"
#include "text/document.h"

namespace aggchecker {
namespace core {
namespace {

using testing_fixtures::MakeNflDatabase;

// Article with one deliberately wrong claim: the paper's Table 9 reports
// the article said "three" repeated-substance-abuse bans while the updated
// data contains four... here we flip it: data says 3, text says "two".
constexpr const char* kArticleWithError = R"(
<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans</h2>
<p>There were only four previous lifetime bans in my database. Two were
for repeated substance abuse offenses, one was for gambling.</p>
)";

constexpr const char* kCorrectArticle = R"(
<h1>The NFL's Uneven History Of Punishing Domestic Violence</h1>
<h2>Lifetime bans</h2>
<p>There were only four previous lifetime bans in my database. Three were
for repeated substance abuse offenses, one was for gambling.</p>
)";

TEST(AggCheckerTest, CreateRequiresDatabase) {
  EXPECT_FALSE(AggChecker::Create(nullptr).ok());
  db::Database empty;
  EXPECT_FALSE(AggChecker::Create(&empty).ok());
}

TEST(AggCheckerTest, VerifiesCorrectArticle) {
  auto database = MakeNflDatabase();
  auto checker = AggChecker::Create(&database);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument(kCorrectArticle);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdicts.size(), 3u);
  for (const auto& v : report->verdicts) {
    EXPECT_FALSE(v.likely_erroneous)
        << v.claim.id << " best: " << v.best()->query.ToSql();
    EXPECT_GT(v.correctness_probability, 0.5);
  }
  EXPECT_GT(report->queries_evaluated, 0u);
  EXPECT_GT(report->total_seconds, 0.0);
}

TEST(AggCheckerTest, FlagsErroneousClaim) {
  auto database = MakeNflDatabase();
  auto checker = AggChecker::Create(&database);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument(kArticleWithError);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->verdicts.size(), 3u);
  // "four" and "one" verify; "two" must be flagged.
  EXPECT_FALSE(report->verdicts[0].likely_erroneous);
  EXPECT_TRUE(report->verdicts[1].likely_erroneous);
  EXPECT_FALSE(report->verdicts[2].likely_erroneous);
  EXPECT_EQ(report->NumFlagged(), 1u);
}

TEST(AggCheckerTest, StarvedBudgetDegradesToPartialVerdicts) {
  auto database = MakeNflDatabase();
  CheckOptions options;
  options.governor.max_row_scans = 1;  // trips on the first inspection
  auto checker = AggChecker::Create(&database, options);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument(kCorrectArticle);
  auto report = checker->Check(*doc);
  // Exhausting the budget is NOT an error: the run completes with
  // best-effort verdicts.
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdicts.size(), 3u);
  EXPECT_GT(report->NumPartial(), 0u);
  for (const auto& v : report->verdicts) {
    if (v.partial) {
      EXPECT_FALSE(v.likely_erroneous) << v.claim.id;
    }
  }
  EXPECT_TRUE(report->governor_usage.exhausted);
  EXPECT_EQ(report->governor_usage.stop_code, StatusCode::kBudgetExhausted);
}

TEST(AggCheckerTest, UnlimitedGovernorMatchesDefaultRun) {
  auto database = MakeNflDatabase();
  auto doc = text::ParseDocument(kCorrectArticle);

  auto baseline = AggChecker::Create(&database);
  ASSERT_TRUE(baseline.ok());
  auto baseline_report = baseline->Check(*doc);
  ASSERT_TRUE(baseline_report.ok());

  CheckOptions options;
  options.governor.max_row_scans = 0;  // explicit unlimited
  options.governor.deadline_seconds = 0;
  auto governed = AggChecker::Create(&database, options);
  ASSERT_TRUE(governed.ok());
  auto governed_report = governed->Check(*doc);
  ASSERT_TRUE(governed_report.ok());

  // An unlimited governor only counts; verdicts are bit-identical.
  ASSERT_EQ(governed_report->verdicts.size(),
            baseline_report->verdicts.size());
  for (size_t i = 0; i < baseline_report->verdicts.size(); ++i) {
    const auto& a = baseline_report->verdicts[i];
    const auto& b = governed_report->verdicts[i];
    EXPECT_EQ(a.likely_erroneous, b.likely_erroneous);
    EXPECT_FALSE(b.partial);
    EXPECT_DOUBLE_EQ(a.correctness_probability, b.correctness_probability);
  }
  EXPECT_EQ(governed_report->NumPartial(), 0u);
  EXPECT_FALSE(governed_report->governor_usage.exhausted);
  EXPECT_GT(governed_report->governor_usage.rows_charged, 0u);
}

TEST(AggCheckerTest, DeadlineStopIsReportedInUsage) {
  auto database = MakeNflDatabase();
  CheckOptions options;
  options.governor.deadline_seconds = 1e-9;  // already expired
  auto checker = AggChecker::Create(&database, options);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument(kCorrectArticle);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->governor_usage.exhausted);
  EXPECT_EQ(report->governor_usage.stop_code, StatusCode::kDeadlineExceeded);
  EXPECT_GT(report->NumPartial(), 0u);
}

TEST(AggCheckerTest, TopQueriesCappedByOption) {
  auto database = MakeNflDatabase();
  CheckOptions options;
  options.report_top_k = 3;
  auto checker = AggChecker::Create(&database, options);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument(kCorrectArticle);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  for (const auto& v : report->verdicts) {
    EXPECT_LE(v.top_queries.size(), 3u);
  }
}

// The flag rule reads the top-1 candidate also when none is reported.
TEST(AggCheckerTest, ZeroTopKFlagsTheSameClaims) {
  auto database = MakeNflDatabase();
  auto doc = text::ParseDocument(kArticleWithError);
  std::vector<CheckReport> reports;
  for (size_t top_k : {10u, 0u}) {
    CheckOptions options;
    options.report_top_k = top_k;
    auto checker = AggChecker::Create(&database, options);
    ASSERT_TRUE(checker.ok());
    auto report = checker->Check(*doc);
    ASSERT_TRUE(report.ok());
    reports.push_back(std::move(*report));
  }
  const CheckReport& ten = reports[0];
  const CheckReport& none = reports[1];
  EXPECT_EQ(ten.NumFlagged(), 1u);
  ASSERT_EQ(none.verdicts.size(), ten.verdicts.size());
  for (size_t i = 0; i < ten.verdicts.size(); ++i) {
    EXPECT_TRUE(none.verdicts[i].top_queries.empty());
    EXPECT_EQ(none.verdicts[i].likely_erroneous,
              ten.verdicts[i].likely_erroneous);
    EXPECT_EQ(none.verdicts[i].correctness_probability,
              ten.verdicts[i].correctness_probability);
  }
}

TEST(AggCheckerTest, CachePersistsAcrossChecks) {
  auto database = MakeNflDatabase();
  auto checker = AggChecker::Create(&database);
  ASSERT_TRUE(checker.ok());
  auto doc = text::ParseDocument(kCorrectArticle);
  (void)checker->Check(*doc);
  size_t cubes_after_first = checker->engine().stats().cube_queries;
  (void)checker->Check(*doc);
  size_t cubes_after_second = checker->engine().stats().cube_queries;
  // Re-checking the same document is (almost) free on the query side.
  EXPECT_EQ(cubes_after_first, cubes_after_second);
}

TEST(AggCheckerTest, NoClaimsNoVerdicts) {
  auto database = MakeNflDatabase();
  auto checker = AggChecker::Create(&database);
  auto doc = text::ParseDocument("Nothing numeric is stated here at all.");
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report->verdicts.empty());
  EXPECT_EQ(report->NumFlagged(), 0u);
}

TEST(QueryDescriberTest, CountStarWithPredicates) {
  auto q = testing_fixtures::CountStar(
      "nflsuspensions",
      {{{"nflsuspensions", "Games"}, db::Value(std::string("indef"))}});
  EXPECT_EQ(DescribeQuery(q),
            "the number of rows in nflsuspensions where Games is 'indef'");
}

TEST(QueryDescriberTest, AverageColumn) {
  db::SimpleAggregateQuery q;
  q.fn = db::AggFn::kAvg;
  q.agg_column = {"orders", "amount"};
  EXPECT_EQ(DescribeQuery(q), "the average of 'amount' in orders");
}

TEST(QueryDescriberTest, ConditionalProbabilityPhrasing) {
  db::SimpleAggregateQuery q;
  q.fn = db::AggFn::kConditionalProbability;
  q.agg_column = {"nflsuspensions", ""};
  q.predicates = {
      {{"nflsuspensions", "Games"}, db::Value(std::string("indef"))},
      {{"nflsuspensions", "Category"}, db::Value(std::string("gambling"))}};
  std::string desc = DescribeQuery(q);
  EXPECT_NE(desc.find("given that Games is 'indef'"), std::string::npos);
  EXPECT_NE(desc.find("Category is 'gambling'"), std::string::npos);
}

TEST(MarkupTest, FlaggedClaimWrappedInRed) {
  auto database = MakeNflDatabase();
  auto checker = AggChecker::Create(&database);
  auto doc = text::ParseDocument(kArticleWithError);
  auto report = checker->Check(*doc);
  ASSERT_TRUE(report.ok());

  std::string plain = RenderMarkup(*doc, *report, MarkupStyle::kPlain);
  EXPECT_NE(plain.find("[OK four]"), std::string::npos);
  EXPECT_NE(plain.find("[?? Two]"), std::string::npos);
  EXPECT_NE(plain.find("best query:"), std::string::npos);

  std::string ansi = RenderMarkup(*doc, *report, MarkupStyle::kAnsi);
  EXPECT_NE(ansi.find("\x1b[31mTwo\x1b[0m"), std::string::npos);

  std::string html = RenderMarkup(*doc, *report, MarkupStyle::kHtml);
  EXPECT_NE(html.find("<span class=\"flagged\">Two</span>"),
            std::string::npos);
  EXPECT_NE(html.find("<span class=\"verified\">four</span>"),
            std::string::npos);
}

TEST(MarkupTest, HeadlinesRendered) {
  auto database = MakeNflDatabase();
  auto checker = AggChecker::Create(&database);
  auto doc = text::ParseDocument(kCorrectArticle);
  auto report = checker->Check(*doc);
  std::string out = RenderMarkup(*doc, *report, MarkupStyle::kPlain);
  EXPECT_NE(out.find("## Lifetime bans"), std::string::npos);
  EXPECT_NE(out.find("# The NFL's"), std::string::npos);
}

}  // namespace
}  // namespace core
}  // namespace aggchecker
