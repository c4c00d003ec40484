// Incremental re-verification (DESIGN.md §16): ReCheck against a prior
// report must be bit-identical (FleetVerdictFingerprint) to a from-scratch
// Check on the current data — across thread counts, governor budgets, and
// with priors on or off. ReCheck follows a whole-document rule: splice the
// prior report when no stamped dependency moved, otherwise re-run every
// claim. Also pins the dependency-stamp contract that drives the splice
// decision and the alignment fallback when the document itself changes.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/harness.h"
#include "db/database.h"
#include "db/table.h"
#include "text/document.h"

namespace aggchecker {
namespace {

// Two disconnected single-table domains with fully disjoint vocabularies —
// no shared column names, value literals, or topical words between the
// weather and payroll claims (real articles share too much function
// vocabulary for keyword retrieval to keep candidate spaces apart). With
// disjoint terms, each claim's retrieved fragments — and so its dependency
// stamp — stay inside its own table, giving deterministic splice
// selectivity when only one table's data changes.
corpus::CorpusCase MakeTwoDomainCase() {
  corpus::CorpusCase c;
  c.name = "weather+payroll";

  db::Table weather("weather");
  EXPECT_TRUE(weather.AddColumn("city", db::ValueType::kString).ok());
  EXPECT_TRUE(weather.AddColumn("rainfall", db::ValueType::kLong).ok());
  const char* cities[] = {"oslo", "bergen", "tromso", "oslo", "bergen"};
  const int64_t rain[] = {40, 55, 30, 45, 60};
  for (size_t r = 0; r < 5; ++r) {
    EXPECT_TRUE(weather
                    .AddRow({db::Value(std::string(cities[r])),
                             db::Value(rain[r])})
                    .ok());
  }
  EXPECT_TRUE(c.database.AddTable(std::move(weather)).ok());

  db::Table payroll("payroll");
  EXPECT_TRUE(payroll.AddColumn("department", db::ValueType::kString).ok());
  EXPECT_TRUE(payroll.AddColumn("salary", db::ValueType::kLong).ok());
  const char* depts[] = {"engineering", "marketing", "engineering"};
  const int64_t salary[] = {520, 410, 480};
  for (size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(payroll
                    .AddRow({db::Value(std::string(depts[r])),
                             db::Value(salary[r])})
                    .ok());
  }
  EXPECT_TRUE(c.database.AddTable(std::move(payroll)).ok());

  c.document.set_title("quarterly figures");
  int weather_section = c.document.AddSection("weather");
  c.document.AddParagraph(
      "Average rainfall across cities came to 46 millimeters. "
      "The city of oslo measured 45 millimeters of rainfall.",
      weather_section);
  int payroll_section = c.document.AddSection("payroll");
  c.document.AddParagraph(
      "The maximum salary paid was 520 per week. "
      "Average salary in the engineering department reached 500.",
      payroll_section);
  return c;
}

// Every verdict carries its dependency stamp: non-empty, lower-cased,
// strictly sorted (the translator emits a set), and stamped with the
// database's current version of each table.
TEST(IncrementalReCheckTest, DependencyStampsCoverClaims) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
  auto checker = core::AggChecker::Create(&article.database, {});
  ASSERT_TRUE(checker.ok());
  auto report = checker->Check(article.document);
  ASSERT_TRUE(report.ok());
  ASSERT_GT(report->verdicts.size(), 0u);
  EXPECT_EQ(report->claims_spliced, 0u);
  EXPECT_EQ(report->claims_rechecked, 0u);

  for (const core::ClaimVerdict& v : report->verdicts) {
    ASSERT_FALSE(v.dependencies.empty())
        << "claim " << v.claim.id << " reads data but has no stamp";
    for (size_t d = 0; d < v.dependencies.size(); ++d) {
      const auto& [table, version] = v.dependencies[d];
      for (char ch : table) {
        EXPECT_FALSE(ch >= 'A' && ch <= 'Z')
            << table << " must be stamped lower-cased";
      }
      if (d > 0) {
        EXPECT_LT(v.dependencies[d - 1].first, table);
      }
      EXPECT_EQ(version, article.database.TableVersion(table))
          << table << " stamped with a stale version";
      EXPECT_NE(version, 0u) << table << " is not a table of this database";
    }
  }
}

// No data change: ReCheck splices the entire prior report without touching
// the evaluation stack, and the result is fingerprint-identical.
TEST(IncrementalReCheckTest, NoChangeReChecksToFullSplice) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
  auto checker = core::AggChecker::Create(&article.database, {});
  ASSERT_TRUE(checker.ok());
  auto prior = checker->Check(article.document);
  ASSERT_TRUE(prior.ok());

  auto recheck = checker->ReCheck(article.document, *prior);
  ASSERT_TRUE(recheck.ok());
  EXPECT_EQ(recheck->claims_spliced, prior->verdicts.size());
  EXPECT_EQ(recheck->claims_rechecked, 0u);
  EXPECT_EQ(core::FleetVerdictFingerprint(*recheck),
            core::FleetVerdictFingerprint(*prior));
}

// The tentpole acceptance sweep: after appending rows to one table, ReCheck
// must be bit-identical to a from-scratch Check on the mutated data at
// 1/2/8 threads, with and without a governor budget. The cold reference
// adopts the warm checker's catalog (the catalog deliberately does not
// track ingestion) so both runs translate over the same fragment space.
TEST(IncrementalReCheckTest, BitIdenticalAfterAppendAcrossThreadsAndBudgets) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{20'000}}) {
      corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
      core::CheckOptions options;
      options.model.num_threads = threads;
      options.governor.max_row_scans = budget;

      auto warm = core::AggChecker::Create(&article.database, options);
      ASSERT_TRUE(warm.ok());
      auto prior = warm->Check(article.document);
      ASSERT_TRUE(prior.ok());

      ASSERT_TRUE(
          corpus::AppendSyntheticRows(&article.database, "gifts", 20).ok());
      auto recheck = warm->ReCheck(article.document, *prior);
      ASSERT_TRUE(recheck.ok());
      // Default options keep priors on, so every claim re-checks (coupled
      // distributions), against caches the version sweep has narrowed.
      EXPECT_EQ(recheck->claims_rechecked, prior->verdicts.size());
      EXPECT_EQ(recheck->claims_spliced, 0u);
      if (budget == 0) {
        EXPECT_GT(recheck->eval_stats.cache_invalidations, 0u)
            << "the version sweep must evict cubes reading the bumped table";
      }

      core::CheckOptions cold_options = options;
      cold_options.prebuilt_catalog = warm->shared_catalog();
      auto cold = core::AggChecker::Create(&article.database, cold_options);
      ASSERT_TRUE(cold.ok());
      auto reference = cold->Check(article.document);
      ASSERT_TRUE(reference.ok());

      EXPECT_EQ(core::FleetVerdictFingerprint(*recheck),
                core::FleetVerdictFingerprint(*reference))
          << "diverged at threads=" << threads << " budget=" << budget;
    }
  }
}

// Priors off, no budget, and an append that reaches only some claims: the
// prior report's stamps are selective (the two-domain case keeps weather
// claims off the payroll table), yet the whole-document rule re-checks
// every claim, and the result matches a from-scratch Check.
TEST(IncrementalReCheckTest, PriorsOffReCheckMatchesScratch) {
  corpus::CorpusCase article = MakeTwoDomainCase();
  core::CheckOptions options;
  options.model.use_priors = false;

  auto warm = core::AggChecker::Create(&article.database, options);
  ASSERT_TRUE(warm.ok());
  auto prior = warm->Check(article.document);
  ASSERT_TRUE(prior.ok());
  ASSERT_GT(prior->verdicts.size(), 1u);

  ASSERT_TRUE(
      corpus::AppendSyntheticRows(&article.database, "payroll", 2).ok());
  size_t expect_rechecked = 0;
  for (const core::ClaimVerdict& v : prior->verdicts) {
    for (const auto& dep : v.dependencies) {
      if (article.database.TableVersion(dep.first) != dep.second) {
        ++expect_rechecked;
        break;
      }
    }
  }
  ASSERT_GT(expect_rechecked, 0u) << "append must reach some claim";
  ASSERT_LT(expect_rechecked, prior->verdicts.size())
      << "the weather component must stay untouched by the append";

  auto recheck = warm->ReCheck(article.document, *prior);
  ASSERT_TRUE(recheck.ok());
  EXPECT_EQ(recheck->claims_rechecked, prior->verdicts.size());
  EXPECT_EQ(recheck->claims_spliced, 0u);

  core::CheckOptions cold_options = options;
  cold_options.prebuilt_catalog = warm->shared_catalog();
  auto cold = core::AggChecker::Create(&article.database, cold_options);
  ASSERT_TRUE(cold.ok());
  auto reference = cold->Check(article.document);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(core::FleetVerdictFingerprint(*recheck),
            core::FleetVerdictFingerprint(*reference))
      << "re-checked report diverged from the from-scratch reference";
}

// A changed document de-aligns the prior report: ReCheck must fall back to
// a full Check (incremental accounting zeroed) and still return the right
// answer for the new text.
TEST(IncrementalReCheckTest, MisalignedDocumentFallsBackToFullCheck) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
  auto checker = core::AggChecker::Create(&article.database, {});
  ASSERT_TRUE(checker.ok());
  auto prior = checker->Check(article.document);
  ASSERT_TRUE(prior.ok());

  text::TextDocument edited = article.document;
  edited.AddParagraph(
      "The average donation across all gifts was 250 dollars.");
  auto fallback = checker->ReCheck(edited, *prior);
  ASSERT_TRUE(fallback.ok());
  EXPECT_EQ(fallback->claims_spliced, 0u);
  EXPECT_EQ(fallback->claims_rechecked, 0u);

  auto reference = checker->Check(edited);
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(fallback->verdicts.size(), reference->verdicts.size());
  EXPECT_EQ(core::FleetVerdictFingerprint(*fallback),
            core::FleetVerdictFingerprint(*reference));
}

}  // namespace
}  // namespace aggchecker
