#include "corpus/harness.h"

#include <gtest/gtest.h>

#include "corpus/embedded_articles.h"
#include "util/fault_injection.h"

namespace aggchecker {
namespace corpus {
namespace {

std::vector<CorpusCase> SmallCorpus() {
  std::vector<CorpusCase> corpus;
  corpus.push_back(MakeNflCase());
  corpus.push_back(MakeDeveloperSurveyCase());
  return corpus;
}

TEST(HarnessTest, AggregatesAcrossCases) {
  auto corpus = SmallCorpus();
  auto result = RunOnCorpus(corpus, core::CheckOptions{});
  ASSERT_EQ(result.reports.size(), 2u);
  EXPECT_EQ(result.coverage.total, corpus[0].ground_truth.size() +
                                       corpus[1].ground_truth.size());
  EXPECT_EQ(result.detection.total_claims, result.coverage.total);
  EXPECT_GT(result.queries_evaluated, 0u);
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GE(result.total_seconds, result.query_seconds);
}

TEST(HarnessTest, ForcesTop20Reporting) {
  auto corpus = SmallCorpus();
  core::CheckOptions options;
  options.report_top_k = 3;  // harness must widen this for top-20 coverage
  auto result = RunOnCorpus(corpus, options);
  for (const auto& report : result.reports) {
    for (const auto& v : report.verdicts) {
      // At least some verdicts carry more than 3 candidates.
      if (v.top_queries.size() > 3) return;
    }
  }
  FAIL() << "report_top_k was not widened";
}

TEST(HarnessTest, RecoveryCountersSurfaceInRunResult) {
  fault_injection::DisarmAll();
  auto corpus = SmallCorpus();

  core::CheckOptions options;
  auto clean = RunOnCorpus(corpus, options);
  EXPECT_EQ(clean.recovery_retries, 0u);
  EXPECT_EQ(clean.ladder_descents, 0u);
  EXPECT_EQ(clean.claims_recovered, 0u);
  EXPECT_EQ(clean.claims_quarantined, 0u);

  fault_injection::Arm("cube.scan.vectorized");
  auto healed = RunOnCorpus(corpus, options);
  fault_injection::DisarmAll();
  EXPECT_GT(healed.ladder_descents, 0u)
      << "harness must aggregate engine recovery counters";
  EXPECT_GT(healed.queries_recovered, 0u);
  EXPECT_GT(healed.claims_recovered, 0u);
  EXPECT_EQ(healed.claims_quarantined, 0u);
  // Recovery heals to the bit-identical twin path: verdicts match.
  ASSERT_EQ(healed.reports.size(), clean.reports.size());
  EXPECT_EQ(healed.detection.true_positives, clean.detection.true_positives);
  EXPECT_EQ(healed.detection.false_positives, clean.detection.false_positives);
}

TEST(HarnessTest, CoverageMonotoneInK) {
  auto corpus = SmallCorpus();
  auto result = RunOnCorpus(corpus, core::CheckOptions{});
  for (size_t k = 2; k <= 20; ++k) {
    EXPECT_GE(result.coverage.TopK(k), result.coverage.TopK(k - 1)) << k;
  }
}

TEST(HarnessTest, DetectionConsistentWithReports) {
  auto corpus = SmallCorpus();
  auto result = RunOnCorpus(corpus, core::CheckOptions{});
  size_t flagged = 0;
  for (const auto& report : result.reports) flagged += report.NumFlagged();
  EXPECT_EQ(flagged,
            result.detection.true_positives + result.detection.false_positives);
}

TEST(HarnessTest, EmptyCorpus) {
  std::vector<CorpusCase> empty;
  auto result = RunOnCorpus(empty, core::CheckOptions{});
  EXPECT_TRUE(result.reports.empty());
  EXPECT_EQ(result.coverage.total, 0u);
}

}  // namespace
}  // namespace corpus
}  // namespace aggchecker
