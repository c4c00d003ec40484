// Verification-aware candidate pruning (DESIGN.md §17): the probe runs only
// where a decision skips work — the naive (per-candidate) strategy under a
// governor that limits nothing. Reports with model.probe_pruning on must be
// bit-identical (FleetVerdictFingerprint) to the unpruned reference across
// the embedded article corpus, thread counts, budgets, strategies, and
// ingestion-mutated databases. Every other configuration must probe nothing
// and charge exactly what the unpruned run charges. Also pins the
// probe_verify zero-conflict contract (an unsound probe bound shows up here
// before it can ever flip a verdict) and the stale-stats regression: a
// probe decision must never outlive the data-version bump that invalidates
// it.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/generator.h"
#include "corpus/harness.h"
#include "db/database.h"
#include "db/table.h"
#include "text/document.h"
#include "util/rounding.h"

namespace aggchecker {
namespace {

struct RunOutcome {
  std::string fingerprint;
  core::CheckReport report;
};

/// One Check with `pruning` on/off; the unpruned run adopts `catalog` so
/// both sides translate over the identical fragment space.
RunOutcome RunOnce(const db::Database* db, const text::TextDocument& doc,
                   bool pruning, size_t threads, uint64_t budget,
                   db::EvalStrategy strategy = db::EvalStrategy::kNaive,
                   std::shared_ptr<const fragments::FragmentCatalog> catalog =
                       nullptr) {
  core::CheckOptions options;
  options.strategy = strategy;
  options.model.probe_pruning = pruning;
  options.model.num_threads = threads;
  options.governor.max_row_scans = budget;
  options.prebuilt_catalog = std::move(catalog);
  auto checker = core::AggChecker::Create(db, options);
  EXPECT_TRUE(checker.ok());
  auto report = checker->Check(doc);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  RunOutcome out;
  out.fingerprint = core::FleetVerdictFingerprint(*report);
  out.report = std::move(*report);
  return out;
}

void ExpectChargeParity(const core::CheckReport& pruned,
                        const core::CheckReport& reference,
                        const std::string& where, size_t threads = 1) {
  // Charge totals are part of the bit-identity surface: a prune that
  // changed what the governor saw would make budgets non-reproducible.
  // (`checkpoints` is diagnostic and thread-dependent — excluded.)
  // One caveat, independent of pruning: when a budget trips at >1 thread,
  // in-flight workers may each land one more amortized charge block before
  // observing the trip, so the *total at exhaustion* is
  // interleaving-dependent (the same unpruned config run twice can differ
  // by a block). Exact row parity is asserted wherever charging is
  // deterministic — one thread, or an un-tripped budget; a tripped
  // multi-thread run still asserts the exhaustion flag and everything
  // downstream of it (the fingerprint covers the verdicts).
  if (threads == 1 || !reference.governor_usage.exhausted) {
    EXPECT_EQ(pruned.governor_usage.rows_charged,
              reference.governor_usage.rows_charged)
        << where;
    EXPECT_EQ(pruned.governor_usage.cube_groups_charged,
              reference.governor_usage.cube_groups_charged)
        << where;
    EXPECT_EQ(pruned.governor_usage.memory_bytes_charged,
              reference.governor_usage.memory_bytes_charged)
        << where;
  }
  EXPECT_EQ(pruned.governor_usage.exhausted,
            reference.governor_usage.exhausted)
      << where;
}

// An unbudgeted naive run skips the scans of decided candidates, and a
// skipped scan is never charged, so pruning lowers the rows charged
// whenever it decided anything. (Exact parity never held here; a budget
// would make the probe stand down, see ExpectChargeParity.)
void ExpectFewerRowsWhenPruned(const core::CheckReport& pruned,
                               const core::CheckReport& reference,
                               const std::string& where) {
  if (pruned.probe_stats.candidates_pruned > 0) {
    EXPECT_LT(pruned.governor_usage.rows_charged,
              reference.governor_usage.rows_charged)
        << where;
  } else {
    EXPECT_EQ(pruned.governor_usage.rows_charged,
              reference.governor_usage.rows_charged)
        << where;
  }
  EXPECT_FALSE(pruned.governor_usage.exhausted) << where;
}

// The corpus sweep: every embedded article, naive and merged+cached, 1/2/8
// threads, with and without a row-scan budget. Pruned and unpruned verdicts
// are bit-identical wherever a run reproduces itself. Only the unbudgeted
// naive arm probes; every other arm must probe nothing and charge exactly
// what the unpruned run charges.
TEST(ProbePruningDiffTest, BitIdenticalAcrossCorpusThreadsAndBudgets) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  for (const corpus::CorpusCase& article : articles) {
    for (db::EvalStrategy strategy :
         {db::EvalStrategy::kNaive, db::EvalStrategy::kMergedCached}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        for (uint64_t budget : {uint64_t{0}, uint64_t{20'000}}) {
          RunOutcome pruned =
              RunOnce(&article.database, article.document,
                      /*pruning=*/true, threads, budget, strategy);
          RunOutcome reference =
              RunOnce(&article.database, article.document,
                      /*pruning=*/false, threads, budget, strategy);
          std::string where =
              article.name + " " + db::EvalStrategyName(strategy) +
              " threads=" + std::to_string(threads) +
              " budget=" + std::to_string(budget);
          // When a budget trips while several threads run naive scans, the
          // interleaving decides which scans finished first: such a run
          // does not even reproduce itself (DESIGN.md §9 weakens the
          // contract to documented outcomes under trips). Its verdicts are
          // compared only where they are deterministic.
          const bool reproducible =
              strategy != db::EvalStrategy::kNaive || threads == 1 ||
              !reference.report.governor_usage.exhausted;
          if (reproducible) {
            EXPECT_EQ(pruned.fingerprint, reference.fingerprint) << where;
            EXPECT_EQ(pruned.report.NumPartial(),
                      reference.report.NumPartial())
                << where;
          }
          for (const core::ClaimVerdict& v : pruned.report.verdicts) {
            EXPECT_FALSE(v.partial && v.likely_erroneous) << where;
          }
          // The unpruned reference never probes.
          EXPECT_EQ(reference.report.probe_stats.candidates_probed, 0u);
          const model::ProbeStats& probes = pruned.report.probe_stats;
          if (strategy == db::EvalStrategy::kNaive && budget == 0) {
            EXPECT_GT(probes.candidates_probed, 0u) << where;
            ExpectFewerRowsWhenPruned(pruned.report, reference.report,
                                      where);
            continue;
          }
          EXPECT_EQ(probes.candidates_probed, 0u) << where;
          EXPECT_EQ(probes.backfilled, 0u) << where;
          EXPECT_EQ(pruned.report.eval_stats.probe_slice_rows_skipped, 0u)
              << where;
          ExpectChargeParity(pruned.report, reference.report, where,
                             threads);
        }
      }
    }
  }
}

// The same identity sweep over a randomized generated corpus — schemas,
// vocabularies, and claim mixes the hand-written articles don't cover.
TEST(ProbePruningDiffTest, BitIdenticalOnGeneratedFleetCorpus) {
  corpus::GeneratorOptions gen;
  gen.num_cases = 6;
  gen.seed = 1234;
  auto cases = corpus::GenerateCorpus(gen);
  ASSERT_EQ(cases.size(), 6u);
  size_t total_probed = 0;
  for (const corpus::CorpusCase& c : cases) {
    for (size_t threads : {size_t{1}, size_t{8}}) {
      RunOutcome pruned =
          RunOnce(&c.database, c.document, /*pruning=*/true, threads, 0);
      RunOutcome reference =
          RunOnce(&c.database, c.document, /*pruning=*/false, threads, 0);
      EXPECT_EQ(pruned.fingerprint, reference.fingerprint)
          << c.name << " threads=" << threads;
      ExpectFewerRowsWhenPruned(pruned.report, reference.report,
                                c.name + " threads=" + std::to_string(threads));
      total_probed += pruned.report.probe_stats.candidates_probed;
    }
  }
  EXPECT_GT(total_probed, 0u);
}

// probe_verify: every probe runs AND every candidate evaluates for real;
// any disagreement between a synthesized outcome and the actual evaluation
// is counted. Must be zero everywhere — a conflict is an unsound bound.
TEST(ProbePruningDiffTest, VerifyModeFindsNoConflicts) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  size_t total_probed = 0;
  for (const corpus::CorpusCase& article : articles) {
    core::CheckOptions options;
    options.strategy = db::EvalStrategy::kNaive;
    options.model.probe_verify = true;
    auto checker = core::AggChecker::Create(&article.database, options);
    ASSERT_TRUE(checker.ok());
    auto report = checker->Check(article.document);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->probe_stats.probe_conflicts, 0u)
        << article.name << ": synthesized and real outcomes disagreed";
    total_probed += report->probe_stats.candidates_probed;
  }
  EXPECT_GT(total_probed, 0u);
}

// Magnitude pruning engages on the article corpus (claims whose value is
// orders of magnitude outside the aggregate's attainable range), and the
// reported top queries still carry honest results: a probe-decided
// candidate that reaches the report is backfilled with its real value, so
// `matches` is always consistent with `result`.
TEST(ProbePruningDiffTest, PrunesAndBackfillsHonestly) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  size_t total_pruned = 0;
  for (const corpus::CorpusCase& article : articles) {
    core::CheckOptions options;
    options.strategy = db::EvalStrategy::kNaive;
    auto checker = core::AggChecker::Create(&article.database, options);
    ASSERT_TRUE(checker.ok());
    auto report = checker->Check(article.document);
    ASSERT_TRUE(report.ok());
    total_pruned += report->probe_stats.candidates_pruned;
    EXPECT_GE(report->probe_stats.candidates_pruned,
              report->probe_stats.pruned_magnitude);
    for (const core::ClaimVerdict& v : report->verdicts) {
      for (const model::RankedCandidate& cand : v.top_queries) {
        if (!cand.result.has_value()) continue;
        EXPECT_EQ(cand.matches,
                  rounding::Matches(*cand.result, v.claim.claimed_value(),
                                    rounding::RoundingMode::kSignificantDigits))
            << article.name << ": reported match inconsistent with result";
      }
    }
  }
  EXPECT_GT(total_pruned, 0u)
      << "the probe never pruned anything on the whole corpus — the ladder "
         "is dead code or the bench gate will fail";
}

// Stale-stats regression: a literal absent after an UpdateCell (the only
// row holding it rewritten) must be domain-pruned, and a later append that
// reintroduces values/extends bounds must invalidate that decision. Pruned
// and unpruned runs stay bit-identical at every step of the mutation.
TEST(ProbePruningDiffTest, IngestionInvalidatesProbeDecisions) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();

  // Stamp the fragment space before mutating: the catalog deliberately does
  // not track ingestion, so literals it indexed can go stale in the data —
  // exactly the situation the domain probe must handle soundly.
  auto warm = core::AggChecker::Create(&article.database, {});
  ASSERT_TRUE(warm.ok());
  auto baseline = warm->Check(article.document);
  ASSERT_TRUE(baseline.ok());
  auto catalog = warm->shared_catalog();

  // Mutate: rewrite row 0 of every string column of the first table to an
  // existing value of another row where possible (may orphan catalog
  // literals), and append rows that move the numeric bounds.
  db::Database& database = article.database;
  const db::Table& first = database.table(0);
  const std::string table_name = first.name();
  for (size_t c = 0; c < first.num_columns(); ++c) {
    const db::Column& col = first.column(c);
    if (col.type() != db::ValueType::kString || col.values().size() < 2) {
      continue;
    }
    ASSERT_TRUE(
        database.UpdateCell(table_name, 0, col.name(), col.values()[1]).ok());
  }
  ASSERT_TRUE(corpus::AppendSyntheticRows(&database, table_name, 16).ok());

  for (size_t threads : {size_t{1}, size_t{2}}) {
    RunOutcome pruned =
        RunOnce(&database, article.document, /*pruning=*/true, threads, 0,
                db::EvalStrategy::kNaive, catalog);
    RunOutcome reference =
        RunOnce(&database, article.document, /*pruning=*/false, threads, 0,
                db::EvalStrategy::kNaive, catalog);
    EXPECT_EQ(pruned.fingerprint, reference.fingerprint)
        << "threads=" << threads;
    ExpectFewerRowsWhenPruned(pruned.report, reference.report,
                              "mutated threads=" + std::to_string(threads));
    // The orphaned catalog literals must be domain-pruned: this is the one
    // test that exercises the empty-domain family.
    EXPECT_GT(pruned.report.probe_stats.pruned_domain, 0u)
        << "threads=" << threads;
  }
}

// Incremental re-verification composes with pruning: ReCheck (pruning on)
// against a pruned prior is bit-identical to a from-scratch unpruned Check
// on the mutated data.
TEST(ProbePruningDiffTest, ReCheckWithPruningMatchesUnprunedScratch) {
  corpus::CorpusCase article = corpus::MakeDonationsJoinCase();
  core::CheckOptions options;
  options.strategy = db::EvalStrategy::kNaive;
  auto warm = core::AggChecker::Create(&article.database, options);
  ASSERT_TRUE(warm.ok());
  auto prior = warm->Check(article.document);
  ASSERT_TRUE(prior.ok());

  ASSERT_TRUE(
      corpus::AppendSyntheticRows(&article.database, "gifts", 12).ok());
  auto recheck = warm->ReCheck(article.document, *prior);
  ASSERT_TRUE(recheck.ok());
  EXPECT_GT(prior->probe_stats.candidates_probed, 0u);

  RunOutcome reference =
      RunOnce(&article.database, article.document, /*pruning=*/false, 1, 0,
              db::EvalStrategy::kNaive, warm->shared_catalog());
  EXPECT_EQ(core::FleetVerdictFingerprint(*recheck), reference.fingerprint);
}

// The naive strategy has no shared scan to hide a decided candidate
// behind, so the translator skips a decided candidate's scan outright — but
// only under an unlimited governor, where it must stay bit-identical to
// the unpruned run. Under any budget nothing is probed and every candidate
// is evaluated for real, so charges (and with them exhaustion points)
// match exactly.
TEST(ProbePruningDiffTest, NaiveSkipsDecidedOnlyWhenUnbudgeted) {
  corpus::CorpusCase article = corpus::MakeNflCase();

  for (uint64_t budget : {uint64_t{0}, uint64_t{20'000}}) {
    core::CheckOptions pruned;
    pruned.strategy = db::EvalStrategy::kNaive;
    pruned.model.num_threads = 1;  // exact charge totals at exhaustion
    pruned.governor.max_row_scans = budget;
    pruned.model.probe_pruning = true;
    core::CheckOptions reference = pruned;
    reference.model.probe_pruning = false;
    auto pruned_checker = core::AggChecker::Create(&article.database, pruned);
    ASSERT_TRUE(pruned_checker.ok());
    auto reference_checker =
        core::AggChecker::Create(&article.database, reference);
    ASSERT_TRUE(reference_checker.ok());
    auto pruned_report = pruned_checker->Check(article.document);
    ASSERT_TRUE(pruned_report.ok());
    auto reference_report = reference_checker->Check(article.document);
    ASSERT_TRUE(reference_report.ok());

    const std::string where = "budget=" + std::to_string(budget);
    EXPECT_EQ(core::FleetVerdictFingerprint(*pruned_report),
              core::FleetVerdictFingerprint(*reference_report))
        << where;
    if (budget == 0) {
      // Skipped scans are never charged.
      EXPECT_GT(pruned_report->probe_stats.candidates_pruned, 0u) << where;
      EXPECT_LT(pruned_report->governor_usage.rows_charged,
                reference_report->governor_usage.rows_charged);
    } else {
      EXPECT_EQ(pruned_report->probe_stats.candidates_probed, 0u) << where;
      ExpectChargeParity(*pruned_report, *reference_report, where);
    }
  }
}

}  // namespace
}  // namespace aggchecker
