#include "core/fleet_scheduler.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "corpus/fleet_generator.h"
#include "corpus/harness.h"
#include "fragments/catalog.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace aggchecker {
namespace core {
namespace {

corpus::FleetSpec SmallSpec() {
  corpus::FleetSpec spec;
  spec.seed = 11;
  spec.num_articles = 8;
  spec.num_datasets = 2;
  spec.claims_per_article = 4;
  spec.num_dim_columns = 5;
  spec.num_measure_columns = 3;
  spec.rows_per_dataset = 400;
  spec.dim_cardinality = 8;
  spec.error_rate = 0.2;
  return spec;
}

/// Collects per-document fingerprints in input order ("" for failed docs).
std::vector<std::string> Fingerprints(const FleetRunResult& run) {
  std::vector<std::string> fps(run.documents.size());
  for (const auto& doc : run.documents) {
    fps[doc.index] = doc.status.ok() ? FleetVerdictFingerprint(doc.report)
                                     : std::string();
  }
  return fps;
}

/// The tentpole invariant: per-document verdicts are bit-identical between
/// the scheduler (at any thread count) and the one-at-a-time reference run.
/// The scheduler's documents adopt one shared catalog per data set while
/// the reference builds a fresh one per document, so this also compares
/// shared catalogs against fresh ones.
TEST(FleetSchedulerTest, VerdictsBitIdenticalAcrossThreadCounts) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  auto documents = corpus::FleetDocuments(fleet);

  FleetOptions options;
  FleetRunResult reference = RunFleetSequential(documents, options);
  ASSERT_EQ(reference.documents_failed, 0u);
  const auto reference_fps = Fingerprints(reference);

  for (size_t threads : {1u, 2u, 8u}) {
    FleetOptions run_options;
    run_options.num_threads = threads;
    FleetRunResult run = RunFleet(documents, run_options);
    ASSERT_EQ(run.documents_failed, 0u) << threads << " threads";
    EXPECT_EQ(Fingerprints(run), reference_fps) << threads << " threads";
  }
}

/// Same invariant under a global budget tight enough to trip every slice:
/// partial verdicts must also be interleaving-independent, and shared
/// catalogs must match fresh ones here too.
TEST(FleetSchedulerTest, BudgetedVerdictsBitIdenticalAcrossThreadCounts) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  auto documents = corpus::FleetDocuments(fleet);

  // Measure the unconstrained appetite, then grant half of it globally.
  FleetOptions unlimited;
  FleetRunResult probe = RunFleetSequential(documents, unlimited);
  ASSERT_EQ(probe.documents_failed, 0u);
  ASSERT_GT(probe.usage.rows_charged, 0u);

  FleetOptions budgeted;
  budgeted.check.governor.max_row_scans = probe.usage.rows_charged / 2;
  FleetRunResult reference = RunFleetSequential(documents, budgeted);
  const auto reference_fps = Fingerprints(reference);
  EXPECT_GT(reference.claims_partial, 0u);

  for (size_t threads : {1u, 2u, 8u}) {
    FleetOptions run_options = budgeted;
    run_options.num_threads = threads;
    FleetRunResult run = RunFleet(documents, run_options);
    EXPECT_EQ(Fingerprints(run), reference_fps) << threads << " threads";
    EXPECT_EQ(run.documents_exhausted, reference.documents_exhausted)
        << threads << " threads";
  }
}

/// RunFleet indexes each shared data set once per drain: armed with an
/// unreachable trigger (hits are counted, nothing fires), `catalog.build`
/// is hit once per distinct data set, not once per document, and the shared
/// catalogs give the verdicts of the fresh-Create-per-document reference.
TEST(FleetSchedulerTest, BuildsOneCatalogPerDataSet) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  auto documents = corpus::FleetDocuments(fleet);
  ASSERT_EQ(documents.size(), 8u);
  ASSERT_EQ(fleet.datasets.size(), 2u);
  const auto reference_fps =
      Fingerprints(RunFleetSequential(documents, FleetOptions{}));

  fault_injection::FaultSpec count_only;
  count_only.trigger_on_hit = std::numeric_limits<uint64_t>::max();
  for (size_t threads : {1u, 2u, 8u}) {
    FleetOptions options;
    options.num_threads = threads;
    fault_injection::Arm("catalog.build", count_only);  // resets the count
    FleetRunResult run = RunFleet(documents, options);
    const uint64_t hits = fault_injection::HitCount("catalog.build");
    fault_injection::DisarmAll();

    EXPECT_EQ(hits, 2u) << threads << " threads";
    ASSERT_EQ(run.documents_failed, 0u) << threads << " threads";
    EXPECT_EQ(Fingerprints(run), reference_fps) << threads << " threads";
  }
}

/// Fairness: N identical documents under a global budget that trips
/// mid-run degrade together — every document lands partial verdicts, none
/// is starved by queue position.
TEST(FleetSchedulerTest, BudgetTripsFairlyAcrossEqualDocuments) {
  corpus::FleetSpec spec = SmallSpec();
  spec.num_articles = 1;
  spec.num_datasets = 1;
  spec.rows_per_dataset = 1500;
  corpus::FleetCorpus fleet = corpus::GenerateFleet(spec);
  ASSERT_EQ(fleet.articles.size(), 1u);

  // Six equal documents: the same article checked six times.
  constexpr size_t kDocs = 6;
  auto one = corpus::FleetDocuments(fleet);
  std::vector<FleetDocument> documents;
  for (size_t i = 0; i < kDocs; ++i) {
    FleetDocument doc = one[0];
    doc.name = doc.name + "-copy";
    documents.push_back(doc);
  }

  FleetOptions unlimited;
  FleetRunResult probe = RunFleetSequential(documents, unlimited);
  ASSERT_EQ(probe.documents_failed, 0u);

  FleetOptions budgeted;
  budgeted.num_threads = 2;
  budgeted.check.governor.max_row_scans = probe.usage.rows_charged / 2;
  FleetRunResult run = RunFleet(documents, budgeted);

  // The global budget tripped — and tripped everywhere, not on a victim
  // subset: identical documents get identical slices, so every one of them
  // runs out at the same point and carries partial verdicts.
  EXPECT_EQ(run.documents_exhausted, kDocs);
  for (const auto& doc : run.documents) {
    ASSERT_TRUE(doc.status.ok());
    EXPECT_TRUE(doc.report.governor_usage.exhausted);
    EXPECT_GT(doc.report.NumPartial(), 0u) << "document " << doc.index;
  }
  // The fleet-wide spend respects the global ledger: per-slice enforcement
  // keeps the total within one slice's overshoot of the budget.
  const uint64_t slice =
      SliceGovernorBudget(budgeted.check.governor, kDocs).max_row_scans;
  EXPECT_LE(run.usage.rows_charged,
            budgeted.check.governor.max_row_scans +
                kDocs * ResourceGovernor::kCheckIntervalRows + kDocs * slice);
}

/// Governor charge totals are a pure function of the input — equal between
/// the one-at-a-time reference and the pool at any thread count, whatever
/// order the workers finish documents in.
TEST(FleetSchedulerTest, ChargeTotalsEqualAcrossScheduleOrders) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  auto documents = corpus::FleetDocuments(fleet);

  FleetOptions options;
  FleetRunResult a = RunFleetSequential(documents, options);

  options.num_threads = 2;
  FleetRunResult b = RunFleet(documents, options);

  options.num_threads = 8;
  FleetRunResult c = RunFleet(documents, options);

  EXPECT_EQ(a.usage.rows_charged, b.usage.rows_charged);
  EXPECT_EQ(a.usage.cube_groups_charged, b.usage.cube_groups_charged);
  EXPECT_EQ(a.usage.memory_bytes_charged, b.usage.memory_bytes_charged);
  EXPECT_EQ(b.usage.rows_charged, c.usage.rows_charged);
  EXPECT_EQ(b.usage.cube_groups_charged, c.usage.cube_groups_charged);
  EXPECT_EQ(b.usage.memory_bytes_charged, c.usage.memory_bytes_charged);
}

/// RunFleet starts documents in input order, as RunFleetSequential does.
/// At one thread each document finishes before the next starts, so
/// completion times rise with the input index. SmallSpec's articles
/// alternate between its two data sets, so grouping documents by data set
/// would break the order.
TEST(FleetSchedulerTest, DispatchesInInputOrder) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  auto documents = corpus::FleetDocuments(fleet);
  ASSERT_EQ(fleet.datasets.size(), 2u);
  ASSERT_NE(documents[0].database, documents[1].database);

  FleetRunResult run = RunFleet(documents, FleetOptions{});
  ASSERT_EQ(run.documents_failed, 0u);
  for (size_t i = 1; i < run.documents.size(); ++i) {
    EXPECT_LE(run.documents[i - 1].latency_seconds,
              run.documents[i].latency_seconds)
        << "document " << i << " finished before document " << i - 1;
  }
}

/// Both drains ignore a caller's `check.prebuilt_catalog`: each document
/// checks against its own data set's catalog. Set to data set 0's catalog,
/// the field must not reach the documents on data set 1.
TEST(FleetSchedulerTest, IgnoresCallerPrebuiltCatalog) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  auto documents = corpus::FleetDocuments(fleet);
  ASSERT_EQ(fleet.datasets.size(), 2u);
  const auto reference_fps =
      Fingerprints(RunFleetSequential(documents, FleetOptions{}));

  FleetOptions options;
  auto catalog = fragments::FragmentCatalog::Build(*fleet.datasets[0],
                                                   options.check.catalog);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  options.check.prebuilt_catalog =
      std::make_shared<const fragments::FragmentCatalog>(std::move(*catalog));

  FleetRunResult sequential = RunFleetSequential(documents, options);
  ASSERT_EQ(sequential.documents_failed, 0u);
  EXPECT_EQ(Fingerprints(sequential), reference_fps) << "sequential";
  for (size_t threads : {1u, 2u}) {
    options.num_threads = threads;
    FleetRunResult run = RunFleet(documents, options);
    ASSERT_EQ(run.documents_failed, 0u) << threads << " threads";
    EXPECT_EQ(Fingerprints(run), reference_fps) << threads << " threads";
  }
}

/// A document without a usable database fails alone: Create rejects a null
/// or table-less database with kInvalidArgument, in both drains, and every
/// other document gives the verdicts of a run without the bad ones.
TEST(FleetSchedulerTest, FailsDocumentWithoutDatabaseAlone) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());
  const auto good = corpus::FleetDocuments(fleet);
  const auto good_fps = Fingerprints(RunFleetSequential(good, FleetOptions{}));

  const db::Database empty;
  std::vector<FleetDocument> documents = good;
  FleetDocument no_database = good[0];
  no_database.database = nullptr;
  FleetDocument no_tables = good[1];
  no_tables.database = &empty;
  documents.insert(documents.begin() + 5, no_tables);
  documents.insert(documents.begin() + 2, no_database);
  const std::set<size_t> bad = {2, 6};

  auto check = [&](const FleetRunResult& run, const std::string& label) {
    EXPECT_EQ(run.documents_failed, bad.size()) << label;
    size_t next_good = 0;
    for (size_t i = 0; i < run.documents.size(); ++i) {
      const FleetDocumentResult& doc = run.documents[i];
      if (bad.count(i) > 0) {
        EXPECT_EQ(doc.status.code(), StatusCode::kInvalidArgument)
            << label << " document " << i;
        continue;
      }
      ASSERT_TRUE(doc.status.ok()) << label << " document " << i;
      EXPECT_EQ(FleetVerdictFingerprint(doc.report), good_fps[next_good++])
          << label << " document " << i;
    }
  };
  check(RunFleetSequential(documents, FleetOptions{}), "sequential");
  for (size_t threads : {1u, 2u}) {
    FleetOptions options;
    options.num_threads = threads;
    check(RunFleet(documents, options), std::to_string(threads) + " threads");
  }
}

/// The run reports the worker breadth it used: the requested thread count,
/// or the host's concurrency when 0 is requested.
TEST(FleetSchedulerTest, SelfReportsHardwareClamp) {
  corpus::FleetSpec spec = SmallSpec();
  spec.num_articles = 2;
  corpus::FleetCorpus fleet = corpus::GenerateFleet(spec);
  auto documents = corpus::FleetDocuments(fleet);

  FleetOptions options;
  options.num_threads = 8;
  FleetRunResult run = RunFleet(documents, options);
  EXPECT_EQ(run.threads_used, 8u);

  FleetOptions defaulted;
  defaulted.num_threads = 0;  // 0 = hardware concurrency
  FleetRunResult hw = RunFleet(documents, defaulted);
  EXPECT_EQ(hw.threads_used, ThreadPool::HardwareConcurrency());
}

/// Fleet-mode harness: detection scored against ground truth by position.
TEST(FleetSchedulerTest, HarnessScoresFleetAgainstGroundTruth) {
  corpus::FleetCorpus fleet = corpus::GenerateFleet(SmallSpec());

  FleetOptions options;
  options.num_threads = 2;
  corpus::FleetHarnessResult result = corpus::RunOnFleet(fleet, options);
  EXPECT_EQ(result.run.documents_failed, 0u);
  EXPECT_EQ(result.documents_misaligned, 0u);
  EXPECT_EQ(result.detection.total_claims, fleet.TotalClaims());
  // The generator's claims are sharply detectable by construction: perfect
  // precision and recall on a small fleet (the fleet-smoke gate).
  EXPECT_EQ(result.detection.false_positives, 0u);
  EXPECT_EQ(result.detection.false_negatives, 0u);
}

}  // namespace
}  // namespace core
}  // namespace aggchecker
