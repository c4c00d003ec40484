#include "core/interactive_session.h"

#include <gtest/gtest.h>

#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/metrics.h"
#include "test_fixtures.h"
#include "text/document.h"

namespace aggchecker {
namespace core {
namespace {

// Deliberately hard article: the second paragraph's claim has no useful
// keywords for its restriction ("the long-gone four" with Games='indef'
// never mentioned), so only prior propagation from corrected claims can
// resolve it.
constexpr const char* kArticle = R"(
<h1>Suspensions</h1>
<p>There were only four previous lifetime bans in my database. Three were
for repeated substance abuse, one was for gambling.</p>
)";

struct SessionFixture {
  SessionFixture()
      : test_case(corpus::MakeNflCase()),
        checker_holder(AggChecker::Create(&test_case.database)) {
    checker = &*checker_holder;
  }
  corpus::CorpusCase test_case;
  Result<AggChecker> checker_holder;
  AggChecker* checker;
};

TEST(InteractiveSessionTest, StartRunsAutomatedPass) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  EXPECT_EQ(session->num_claims(), f.test_case.ground_truth.size());
  EXPECT_EQ(session->NumPinned(), 0u);
  EXPECT_FALSE(session->report().verdicts.empty());
}

// A session's automated pass is Check: both run the checker's one
// pipeline, so with nothing pinned or dismissed the reports agree bit for
// bit. The naive strategy at report depth 20 probes candidates and must
// backfill every probe-decided candidate it reports, in both paths.
TEST(InteractiveSessionTest, AutomatedPassMatchesCheck) {
  CheckOptions options;
  options.strategy = db::EvalStrategy::kNaive;
  options.report_top_k = 20;
  options.model.num_threads = 1;
  for (const corpus::CorpusCase& article : corpus::EmbeddedArticles()) {
    auto checker = AggChecker::Create(&article.database, options);
    ASSERT_TRUE(checker.ok());
    auto report = checker->Check(article.document);
    ASSERT_TRUE(report.ok()) << report.status().ToString();

    auto session_checker = AggChecker::Create(&article.database, options);
    ASSERT_TRUE(session_checker.ok());
    auto session =
        InteractiveSession::Start(&*session_checker, &article.document);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    EXPECT_EQ(FleetVerdictFingerprint(session->report()),
              FleetVerdictFingerprint(*report))
        << article.name;
  }
}

TEST(InteractiveSessionTest, StartValidatesArguments) {
  SessionFixture f;
  EXPECT_FALSE(InteractiveSession::Start(nullptr, &f.test_case.document)
                   .ok());
  EXPECT_FALSE(InteractiveSession::Start(f.checker, nullptr).ok());
}

TEST(InteractiveSessionTest, SelectCandidatePinsPointMass) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->SelectCandidate(0, 1).ok());
  EXPECT_TRUE(session->IsPinned(0));
  EXPECT_EQ(session->NumPinned(), 1u);
  ASSERT_TRUE(session->Refresh().ok());
  const auto& verdict = session->report().verdicts[0];
  ASSERT_EQ(verdict.top_queries.size(), 1u);
  EXPECT_DOUBLE_EQ(verdict.top_queries[0].probability, 1.0);
}

TEST(InteractiveSessionTest, SelectCandidateRankChecked) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->SelectCandidate(999, 1).ok());
  EXPECT_FALSE(session->SelectCandidate(0, 0).ok());
  EXPECT_FALSE(session->SelectCandidate(0, 999).ok());
}

TEST(InteractiveSessionTest, CustomQueryValidated) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  // Invalid query rejected, pin state unchanged.
  db::SimpleAggregateQuery bad;
  bad.fn = db::AggFn::kSum;
  bad.agg_column = {"nflsuspensions", "Name"};
  EXPECT_FALSE(session->SetCustomQuery(0, bad).ok());
  EXPECT_FALSE(session->IsPinned(0));
  // Valid custom query pins the claim; after refresh the verdict follows
  // the user's query.
  auto q = testing_fixtures::CountStar(
      "nflsuspensions",
      {{{"nflsuspensions", "Games"}, db::Value(std::string("indef"))}});
  ASSERT_TRUE(session->SetCustomQuery(0, q).ok());
  ASSERT_TRUE(session->Refresh().ok());
  const auto& verdict = session->report().verdicts[0];
  EXPECT_TRUE(verdict.top_queries[0].query == q);
  EXPECT_FALSE(verdict.likely_erroneous);  // Count=4 matches claim "four"
}

TEST(InteractiveSessionTest, ClearCorrectionRestoresAutomatic) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  ASSERT_TRUE(session->SelectCandidate(1, 1).ok());
  ASSERT_TRUE(session->ClearCorrection(1).ok());
  EXPECT_FALSE(session->IsPinned(1));
  ASSERT_TRUE(session->Refresh().ok());
  EXPECT_GT(session->report().verdicts[1].top_queries.size(), 1u);
}

TEST(InteractiveSessionTest, PinnedWrongQueryFlagsClaim) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  // Pin claim "four" to a query that evaluates to 16: the user's own
  // translation says the claim is wrong.
  auto q = testing_fixtures::CountStar("nflsuspensions");
  ASSERT_TRUE(session->SetCustomQuery(0, q).ok());
  ASSERT_TRUE(session->Refresh().ok());
  EXPECT_TRUE(session->report().verdicts[0].likely_erroneous);
}

TEST(InteractiveSessionTest, CorrectionPropagatesThroughPriors) {
  // Pin every claim of the NFL case to its ground truth except one, then
  // check that the remaining claim's ground-truth rank does not degrade
  // (the priors now reflect the document's true theme).
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());

  size_t target = 7;  // the erroneous percentage claim (hard)
  size_t before_rank = corpus::GroundTruthRank(
      f.test_case.ground_truth[target],
      session->report().verdicts[target]);
  for (size_t i = 0; i < session->num_claims(); ++i) {
    if (i == target) continue;
    ASSERT_TRUE(
        session->SetCustomQuery(i, f.test_case.ground_truth[i].query).ok());
  }
  ASSERT_TRUE(session->Refresh().ok());
  size_t after_rank = corpus::GroundTruthRank(
      f.test_case.ground_truth[target],
      session->report().verdicts[target]);
  // Rank 0 means "absent"; treat as a large rank for comparison.
  auto effective = [](size_t r) { return r == 0 ? size_t{99} : r; };
  EXPECT_LE(effective(after_rank), effective(before_rank));
}


TEST(InteractiveSessionTest, DismissClaimRemovesFromReport) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  size_t n = session->num_claims();
  ASSERT_TRUE(session->DismissClaim(3).ok());
  EXPECT_TRUE(session->IsDismissed(3));
  ASSERT_TRUE(session->Refresh().ok());
  // Report stays index-aligned; the dismissed verdict is inert.
  ASSERT_EQ(session->report().verdicts.size(), n);
  const auto& v = session->report().verdicts[3];
  EXPECT_TRUE(v.dismissed);
  EXPECT_FALSE(v.likely_erroneous);
  EXPECT_TRUE(v.top_queries.empty());
  // Other claims still translate.
  EXPECT_FALSE(session->report().verdicts[0].top_queries.empty());
  // Dismissal is reversible.
  ASSERT_TRUE(session->ClearCorrection(3).ok());
  EXPECT_FALSE(session->IsDismissed(3));
  ASSERT_TRUE(session->Refresh().ok());
  EXPECT_FALSE(session->report().verdicts[3].top_queries.empty());
}

TEST(InteractiveSessionTest, DismissOutOfRange) {
  SessionFixture f;
  auto session = InteractiveSession::Start(f.checker, &f.test_case.document);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE(session->DismissClaim(999).ok());
}

TEST(RoundingModeTest, ModesOrderedByStrictness) {
  using rounding::Matches;
  using rounding::RoundingMode;
  // 13.6 claimed as 14: rounds under significant digits, fails exact,
  // passes 5% tolerance.
  EXPECT_TRUE(Matches(13.6, 14, RoundingMode::kSignificantDigits));
  EXPECT_FALSE(Matches(13.6, 14, RoundingMode::kExact));
  EXPECT_TRUE(Matches(13.6, 14, RoundingMode::kRelativeTolerance, 0.05));
  EXPECT_FALSE(Matches(13.6, 14, RoundingMode::kRelativeTolerance, 0.01));
  // Exact matches pass everywhere.
  for (auto mode : {RoundingMode::kSignificantDigits, RoundingMode::kExact,
                    RoundingMode::kRelativeTolerance}) {
    EXPECT_TRUE(Matches(42.0, 42.0, mode));
  }
}

TEST(RoundingModeTest, TranslatorHonorsMode) {
  SessionFixture f;
  // Strict matching: the '50,000' average-fine claim still matches (the
  // average is exactly 50000), but rounded percentage claims fail.
  CheckOptions options;
  options.model.rounding_mode = rounding::RoundingMode::kExact;
  auto checker = AggChecker::Create(&f.test_case.database, options);
  ASSERT_TRUE(checker.ok());
  auto report = checker->Check(f.test_case.document);
  ASSERT_TRUE(report.ok());
  // Strictness can only increase the number of flagged claims.
  auto default_checker = AggChecker::Create(&f.test_case.database);
  auto default_report = default_checker->Check(f.test_case.document);
  EXPECT_GE(report->NumFlagged(), default_report->NumFlagged());
}

}  // namespace
}  // namespace core
}  // namespace aggchecker
