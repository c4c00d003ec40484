// The exhaustive chaos matrix over the compile-time fault-point manifest
// (util/fault_points.h): every manifest point must be registered AND
// executed by the drivers below (a never-executed point is dead chaos
// coverage and fails), and arming any single point at 100% must produce a
// documented outcome — for faults inside an optimized path, that means the
// fallback ladder heals the claim to a verdict bit-identical to the
// fault-free reference, with the recovery recorded and nothing surrendered.
//
// By default the armed-point sweep runs on a bounded sample of the embedded
// articles (the default gate); AGG_CHAOS_MATRIX=full sweeps every article
// (scripts/check.sh chaos-matrix runs that under ASan+UBSan).

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/fleet_generator.h"
#include "corpus/harness.h"
#include "db/joined_relation.h"
#include "db/relation_cache.h"
#include "snapshot/snapshot.h"
#include "test_fixtures.h"
#include "text/document.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/fault_points.h"
#include "util/strings.h"

namespace aggchecker {
namespace {

namespace fi = fault_injection;

bool FullMatrix() {
  const char* v = std::getenv("AGG_CHAOS_MATRIX");
  return v != nullptr && std::string(v) == "full";
}

/// Fast recovery for chaos sweeps: no backoff sleeps, same ladder.
core::CheckOptions FastRecoveryOptions() {
  core::CheckOptions options;
  options.recovery.retry.initial_backoff_ms = 0;
  return options;
}

struct RunOutcome {
  Status status;
  core::CheckReport report;
};

RunOutcome RunArticle(const corpus::CorpusCase& test_case,
                      core::CheckOptions options) {
  RunOutcome out;
  test_case.database.relation_cache().Clear();
  auto checker = core::AggChecker::Create(&test_case.database, options);
  if (!checker.ok()) {
    out.status = checker.status();
    return out;
  }
  auto report = checker->Check(test_case.document);
  if (!report.ok()) {
    out.status = report.status();
    return out;
  }
  out.report = std::move(*report);
  return out;
}

/// Exact (hexfloat) rendering of the verdict surface two runs must agree on
/// bit-for-bit. Recovery metadata is deliberately excluded: a healed run
/// records its trip through the ladder, the fault-free reference does not.
std::string VerdictFingerprint(const core::CheckReport& report) {
  std::string out;
  auto bits = [](double v) { return strings::Format("%a", v); };
  for (const auto& v : report.verdicts) {
    out += strings::Format(
        "claim %s cand=%zu correct=%s err=%d partial=%d\n", v.claim.id.c_str(),
        v.total_candidates, bits(v.correctness_probability).c_str(),
        v.likely_erroneous ? 1 : 0, v.partial ? 1 : 0);
    for (const auto& q : v.top_queries) {
      out += strings::Format(
          "  p=%s result=%s match=%d sql=%s\n", bits(q.probability).c_str(),
          q.result.has_value() ? bits(*q.result).c_str() : "none",
          q.matches ? 1 : 0, q.query.ToSql().c_str());
    }
  }
  return out;
}

/// The closed outcome vocabulary of a chaos run (OK is documented: the
/// recovery layer healing or quarantining a fault is the expected path).
bool IsDocumentedOutcome(const Status& status) {
  return status.ok() || status.code() == StatusCode::kInternal ||
         status.code() == StatusCode::kParseError ||
         status.IsResourceExhausted();
}

/// A fleet small enough to generate and drain in milliseconds; drives
/// the `fleet.generator.emit` and `fleet.schedule.pop` points.
corpus::FleetSpec TinyFleetSpec() {
  corpus::FleetSpec spec;
  spec.seed = 3;
  spec.num_articles = 3;
  spec.num_datasets = 1;
  spec.claims_per_article = 3;
  spec.num_dim_columns = 4;
  spec.num_measure_columns = 2;
  spec.rows_per_dataset = 300;
  spec.dim_cardinality = 6;
  spec.error_rate = 0.2;
  return spec;
}

/// Drivers that together execute every manifest point: CSV ingestion, the
/// merged (vectorized + fingerprints + relation cache) pipeline, the naive
/// pipeline, a multi-table join build, post-build row ingestion
/// (data.ingest.append), an unchanged-data incremental re-check
/// (eval.recheck.splice), a snapshot write/load round trip
/// (snapshot.load.map), and a tiny fleet generate+drain cycle
/// (fleet.generator.emit / fleet.schedule.pop).
void RunAllDrivers() {
  {
    auto parsed = csv::Parse(testing_fixtures::kNflCsv);  // csv.row
    (void)parsed;
  }
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  const corpus::CorpusCase& article = articles.front();
  (void)RunArticle(article, FastRecoveryOptions());  // merged/default points
  core::CheckOptions naive = FastRecoveryOptions();
  naive.strategy = db::EvalStrategy::kNaive;
  (void)RunArticle(article, naive);  // executor.execute / executor.scan
  auto orders = testing_fixtures::MakeOrdersDatabase();
  auto join = db::JoinedRelation::Build(orders, {"orders", "customers"});
  ASSERT_TRUE(join.ok());  // join.materialize
  (void)corpus::AppendSyntheticRows(&orders, "orders", 1);  // data.ingest.append
  {
    // eval.recheck.splice: with no data change every claim takes the
    // splice path of an incremental re-check.
    auto checker =
        core::AggChecker::Create(&article.database, FastRecoveryOptions());
    ASSERT_TRUE(checker.ok());
    auto prior = checker->Check(article.document);
    ASSERT_TRUE(prior.ok());
    (void)checker->ReCheck(article.document, *prior);
  }
  {
    const std::string path = "chaos_matrix_driver.snap";
    ASSERT_TRUE(snapshot::WriteSnapshot(path, article.database, nullptr).ok());
    auto loaded = snapshot::LoadSnapshot(path);  // snapshot.load.map
    ASSERT_TRUE(loaded.ok());
    std::remove(path.c_str());
  }
  corpus::FleetCorpus fleet = corpus::GenerateFleet(TinyFleetSpec());
  core::FleetOptions fleet_options;
  fleet_options.check = FastRecoveryOptions();
  (void)core::RunFleet(corpus::FleetDocuments(fleet), fleet_options);
}

// Satellite (a): the manifest is the ground truth. Every manifest point must
// be registered (the macro ran its static initializer), every registered
// point must be in the manifest (no unregistered sites), and — armed with an
// unreachable trigger so hits are counted without firing — every point must
// actually execute under the drivers. A point that never executes is dead
// chaos coverage: the sweep below would silently skip it.
TEST(ChaosMatrixTest, ManifestMatchesRegistryAndEveryPointExecutes) {
  fi::DisarmAll();
  std::vector<std::string> manifest = fi::ManifestPoints();
  ASSERT_FALSE(manifest.empty());
  EXPECT_TRUE(std::is_sorted(manifest.begin(), manifest.end()))
      << "keep util/fault_points.h alphabetized";

  // Arm every manifest point far beyond any real hit count: Trip records
  // the hit but never fires, so the drivers run fault-free while counting.
  fi::FaultSpec count_only;
  count_only.trigger_on_hit = std::numeric_limits<uint64_t>::max();
  for (const std::string& point : manifest) fi::Arm(point, count_only);

  RunAllDrivers();

  std::vector<std::string> registered = fi::RegisteredPoints();
  EXPECT_EQ(registered, manifest)
      << "fault-point registry and manifest drifted apart; update "
         "util/fault_points.h (and scripts/check.sh chaos-matrix greps the "
         "same truth from the source tree)";
  for (const std::string& point : manifest) {
    EXPECT_GT(fi::HitCount(point), 0u)
        << "manifest point never executed by the chaos drivers: " << point;
  }
  fi::DisarmAll();
}

// The matrix itself: each manifest point armed at 100% (permanent
// kInternal), swept over the article sample. Outcomes must stay in the
// documented vocabulary, quarantined claims must degrade to partial (never
// erroneous), and for the two optimized-path points the fallback ladder
// must fully heal the run: verdicts bit-identical to the fault-free
// reference, ladder engaged, nothing surrendered.
TEST(ChaosMatrixTest, EveryManifestPointArmedAtFullRate) {
  fi::DisarmAll();
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  const size_t sample =
      FullMatrix() ? articles.size() : std::min<size_t>(articles.size(), 2);
  // Points whose faults live strictly inside an optimized path with a
  // reference twin below it on the ladder: these must heal completely.
  const std::set<std::string> healed_by_ladder = {"cube.scan.vectorized",
                                                   "relation.cache.acquire"};

  for (size_t a = 0; a < sample; ++a) {
    const corpus::CorpusCase& article = articles[a];
    const RunOutcome reference = RunArticle(article, FastRecoveryOptions());
    ASSERT_TRUE(reference.status.ok())
        << article.name << ": " << reference.status.ToString();
    const std::string reference_fp = VerdictFingerprint(reference.report);

    for (const std::string& point : fi::ManifestPoints()) {
      if (point == "csv.row" || point == "join.materialize" ||
          point == "fleet.generator.emit" || point == "fleet.schedule.pop" ||
          point == "snapshot.load.map") {
        continue;  // not on this driver's path: articles ship parsed,
                   // single-table databases never build joins, the fleet
                   // points have their own quarantine tests below, and
                   // RunArticle never loads a snapshot (the snapshot map
                   // fault has its own rebuild-fallback test below)
      }
      fi::Arm(point);
      RunOutcome outcome = RunArticle(article, FastRecoveryOptions());
      const uint64_t hits = fi::HitCount(point);
      fi::DisarmAll();

      EXPECT_TRUE(IsDocumentedOutcome(outcome.status))
          << article.name << " / " << point << ": "
          << outcome.status.ToString();
      if (hits == 0) continue;  // point not on this article's path

      if (healed_by_ladder.count(point) > 0) {
        ASSERT_TRUE(outcome.status.ok())
            << article.name << " / " << point
            << " should have healed down the ladder: "
            << outcome.status.ToString();
        EXPECT_EQ(VerdictFingerprint(outcome.report), reference_fp)
            << article.name << " / " << point
            << ": healed verdicts must be bit-identical to the reference";
        EXPECT_EQ(outcome.report.NumQuarantined(), 0u)
            << article.name << " / " << point << " surrendered a claim";
        EXPECT_GT(outcome.report.eval_stats.ladder_descents, 0u)
            << article.name << " / " << point << " never engaged the ladder";
        EXPECT_GT(outcome.report.eval_stats.queries_recovered, 0u)
            << article.name << " / " << point << " recorded no recovery";
      } else if (outcome.status.ok()) {
        // Permanent fault the ladder cannot shed (it fires on every rung)
        // or a run-level fault: an OK run must show the quarantine trail,
        // and quarantined claims degrade to partial, never erroneous.
        EXPECT_GT(outcome.report.NumQuarantined() +
                      outcome.report.eval_stats.queries_quarantined,
                  0u)
            << article.name << " / " << point
            << " reported success without any failure or quarantine trace";
        for (const auto& verdict : outcome.report.verdicts) {
          if (!verdict.recovery.quarantined) continue;
          EXPECT_TRUE(verdict.partial)
              << article.name << " / " << point
              << ": quarantined claim not partial";
          EXPECT_FALSE(verdict.likely_erroneous)
              << article.name << " / " << point
              << ": quarantined claim flagged erroneous";
        }
      }
    }
  }
}

// Satellite (f): trip_rate 0.5 with a fixed seed makes the vectorized-scan
// fault flaky-but-reproducible and transient — the same-rung retry loop
// must heal at least one claim on the primary configuration (deepest rung
// 0, no ladder descent for that claim), and healed verdicts still match
// the fault-free reference bit-for-bit.
TEST(ChaosMatrixTest, HalfTripRateRecoversOnPrimaryRung) {
  fi::DisarmAll();
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  const corpus::CorpusCase& article = articles.front();
  // One thread: the seeded schedule draws per hit, so the hit sequence —
  // and with it the recovery counters compared below — is fixed only when
  // morsels run in order.
  core::CheckOptions options = FastRecoveryOptions();
  options.model.num_threads = 1;
  const RunOutcome reference = RunArticle(article, options);
  ASSERT_TRUE(reference.status.ok());

  fi::FaultSpec spec;
  spec.code = StatusCode::kUnavailable;  // transient: retried before descent
  spec.message = "flaky vectorized scan";
  spec.trip_rate = 0.5;
  spec.seed = 20260808;
  fi::Arm("cube.scan.vectorized", spec);
  RunOutcome outcome = RunArticle(article, options);
  const uint64_t hits = fi::HitCount("cube.scan.vectorized");
  fi::DisarmAll();

  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  ASSERT_GT(hits, 0u);
  EXPECT_EQ(VerdictFingerprint(outcome.report),
            VerdictFingerprint(reference.report));
  EXPECT_GT(outcome.report.eval_stats.recovery_retries, 0u)
      << "a transient fault at 50% must trigger same-rung retries";
  bool healed_on_primary = false;
  for (const auto& verdict : outcome.report.verdicts) {
    if (verdict.recovery.recovered && verdict.recovery.deepest_rung == 0) {
      healed_on_primary = true;
    }
  }
  EXPECT_TRUE(healed_on_primary)
      << "no claim recovered on the primary rung without descending";

  // Determinism of the seeded schedule: the same (seed, hit sequence)
  // trips the same hits, so a rerun reproduces the exact recovery counters.
  fi::Arm("cube.scan.vectorized", spec);
  RunOutcome rerun = RunArticle(article, options);
  fi::DisarmAll();
  ASSERT_TRUE(rerun.status.ok());
  EXPECT_EQ(rerun.report.eval_stats.recovery_retries,
            outcome.report.eval_stats.recovery_retries);
  EXPECT_EQ(rerun.report.eval_stats.ladder_descents,
            outcome.report.eval_stats.ladder_descents);
  EXPECT_EQ(rerun.report.eval_stats.queries_recovered,
            outcome.report.eval_stats.queries_recovered);
}

// Poison-claim quarantine keeps the run alive: a fault that fires on every
// rung (cube materialization runs identically under both cube backends)
// cannot be shed, so its claims are surrendered as quarantined partials —
// the report still arrives, nothing is flagged erroneous on the quarantined
// claims, and a subsequent clean run is untouched.
TEST(ChaosMatrixTest, UnsheddableFaultQuarantinesInsteadOfAborting) {
  fi::DisarmAll();
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  const corpus::CorpusCase& article = articles.front();

  fi::Arm("cube.materialize");
  RunOutcome outcome = RunArticle(article, FastRecoveryOptions());
  fi::DisarmAll();

  ASSERT_TRUE(outcome.status.ok()) << outcome.status.ToString();
  EXPECT_GT(outcome.report.NumQuarantined(), 0u);
  EXPECT_EQ(outcome.report.NumRecovered(), 0u)
      << "a claim cannot be both healed and quarantined";
  for (const auto& verdict : outcome.report.verdicts) {
    if (!verdict.recovery.quarantined) continue;
    EXPECT_TRUE(verdict.partial);
    EXPECT_FALSE(verdict.likely_erroneous);
    EXPECT_GT(verdict.recovery.attempts, 1u)
        << "quarantine must come after the ladder was actually tried";
  }

  // Nothing sticky: the fault disarmed, the same article verifies cleanly.
  RunOutcome clean = RunArticle(article, FastRecoveryOptions());
  ASSERT_TRUE(clean.status.ok());
  EXPECT_EQ(clean.report.NumQuarantined(), 0u);
}

// A dispatch fault quarantines exactly the faulted document: the fault is
// attributed to that document's result slot, every other document drains
// normally with verdicts bit-identical to the fault-free run — the drain
// never stalls on a poisoned item. At one thread documents start in input
// order, so hit k of the point falls on document k-1.
TEST(ChaosMatrixTest, FleetPopFaultQuarantinesOneDocumentAlone) {
  fi::DisarmAll();
  corpus::FleetCorpus fleet = corpus::GenerateFleet(TinyFleetSpec());
  auto documents = corpus::FleetDocuments(fleet);
  ASSERT_EQ(documents.size(), 3u);

  core::FleetOptions options;
  options.check = FastRecoveryOptions();
  core::FleetRunResult reference = core::RunFleet(documents, options);
  ASSERT_EQ(reference.documents_failed, 0u);

  fi::FaultSpec spec;
  spec.trigger_on_hit = 2;  // the second document to start
  spec.every_hit = false;
  fi::Arm("fleet.schedule.pop", spec);
  core::FleetRunResult faulted = core::RunFleet(documents, options);
  const uint64_t hits = fi::HitCount("fleet.schedule.pop");
  fi::DisarmAll();

  ASSERT_EQ(hits, documents.size());  // every document passed the point
  EXPECT_EQ(faulted.documents_failed, 1u);
  size_t failed = 0;
  for (size_t i = 0; i < faulted.documents.size(); ++i) {
    const auto& doc = faulted.documents[i];
    const auto& ref = reference.documents[i];
    if (!doc.status.ok()) {
      ++failed;
      EXPECT_EQ(doc.index, 1u)
          << "the fault must land on the second document";
      EXPECT_EQ(doc.status.code(), StatusCode::kInternal);
      continue;
    }
    EXPECT_EQ(core::FleetVerdictFingerprint(doc.report),
              core::FleetVerdictFingerprint(ref.report))
        << "surviving document " << i << " diverged from the fault-free run";
  }
  EXPECT_EQ(failed, 1u);
}

// A catalog-build fault is contained to its data set: RunFleet builds one
// catalog per data set, so every document on the faulted one carries the
// build's error and is not run, while the other data set's documents drain
// with verdicts bit-identical to the fault-free run. At one thread the
// builds run in first-appearance order, so hit 1 is the first document's
// data set; at two threads either build may be hit first.
TEST(ChaosMatrixTest, FleetCatalogFaultFailsOnlyItsDataSet) {
  fi::DisarmAll();
  corpus::FleetSpec spec = TinyFleetSpec();
  spec.num_articles = 4;
  spec.num_datasets = 2;
  corpus::FleetCorpus fleet = corpus::GenerateFleet(spec);
  auto documents = corpus::FleetDocuments(fleet);
  ASSERT_EQ(documents.size(), 4u);

  core::FleetOptions options;
  options.check = FastRecoveryOptions();
  core::FleetRunResult reference = core::RunFleet(documents, options);
  ASSERT_EQ(reference.documents_failed, 0u);

  fi::FaultSpec once;  // fires on hit 1 only
  once.every_hit = false;
  for (size_t threads : {1u, 2u}) {
    options.num_threads = threads;
    fi::Arm("catalog.build", once);
    core::FleetRunResult faulted = core::RunFleet(documents, options);
    fi::DisarmAll();

    std::set<const db::Database*> failed_datasets;
    for (size_t i = 0; i < documents.size(); ++i) {
      const auto& doc = faulted.documents[i];
      if (!doc.status.ok()) {
        EXPECT_EQ(doc.status.code(), StatusCode::kInternal);
        failed_datasets.insert(documents[i].database);
        continue;
      }
      EXPECT_EQ(core::FleetVerdictFingerprint(doc.report),
                core::FleetVerdictFingerprint(reference.documents[i].report))
          << "surviving document " << i << " diverged at " << threads
          << " threads";
    }
    ASSERT_EQ(failed_datasets.size(), 1u) << threads << " threads";
    const db::Database* failed = *failed_datasets.begin();
    if (threads == 1) {
      EXPECT_EQ(failed, documents[0].database)
          << "hit 1 must be the first-appearing data set's build";
    }
    // Exactly the documents of the faulted data set failed, all of them.
    for (size_t i = 0; i < documents.size(); ++i) {
      EXPECT_EQ(faulted.documents[i].status.ok(),
                documents[i].database != failed)
          << "document " << i << " at " << threads << " threads";
    }
  }
}

// A generator-emit fault drops exactly the faulted article: the corpus
// keeps its remaining articles, counts the drop, and — per-article rng
// streams being independent — every survivor is byte-identical to its
// fault-free twin.
TEST(ChaosMatrixTest, FleetEmitFaultDropsOnlyTheFaultedArticle) {
  fi::DisarmAll();
  const corpus::FleetSpec spec = TinyFleetSpec();
  corpus::FleetCorpus reference = corpus::GenerateFleet(spec);
  ASSERT_EQ(reference.articles.size(), spec.num_articles);
  ASSERT_EQ(reference.articles_dropped, 0u);

  fi::FaultSpec fault;
  fault.trigger_on_hit = 2;  // drop the second article
  fault.every_hit = false;
  fi::Arm("fleet.generator.emit", fault);
  corpus::FleetCorpus faulted = corpus::GenerateFleet(spec);
  fi::DisarmAll();

  ASSERT_EQ(faulted.articles.size(), spec.num_articles - 1);
  EXPECT_EQ(faulted.articles_dropped, 1u);
  // Survivors are the fault-free twins, byte for byte: same name, text,
  // and ground truth as the corresponding article of the reference corpus.
  auto text = [](const corpus::FleetArticle& a) {
    std::string out = a.name + "|" + a.document.title();
    for (const auto& s : a.document.sentences()) out += "|" + s.text;
    for (const auto& g : a.ground_truth) {
      out += strings::Format("|%s=%a/%a/%d", g.query.CanonicalKey().c_str(),
                             g.claimed_value, g.true_value,
                             g.is_erroneous ? 1 : 0);
    }
    return out;
  };
  EXPECT_EQ(text(faulted.articles[0]), text(reference.articles[0]));
  EXPECT_EQ(text(faulted.articles[1]), text(reference.articles[2]));
}

// An armed snapshot-map fault makes every load attempt fail cleanly; the
// harness falls back to a full rebuild with verdicts bit-identical to the
// snapshot-free reference — a poisoned snapshot file can degrade cold-start
// latency, never correctness. Disarmed, the same snapshot loads normally.
TEST(ChaosMatrixTest, SnapshotMapFaultFallsBackToRebuild) {
  fi::DisarmAll();
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  std::vector<corpus::CorpusCase> one;
  one.push_back(std::move(articles.front()));

  ::mkdir("chaos_matrix_snapshots", 0755);
  corpus::SnapshotRunOptions save;
  save.dir = "chaos_matrix_snapshots";
  save.save = true;
  corpus::SnapshotRunStats save_stats;
  auto reference =
      corpus::RunOnCorpus(one, FastRecoveryOptions(), save, &save_stats);
  ASSERT_EQ(reference.reports.size(), 1u);
  ASSERT_EQ(save_stats.cases_saved, 1u);
  const std::string reference_fp = VerdictFingerprint(reference.reports[0]);

  corpus::SnapshotRunOptions load;
  load.dir = save.dir;
  load.load = true;

  fi::Arm("snapshot.load.map");
  corpus::SnapshotRunStats faulted_stats;
  auto faulted =
      corpus::RunOnCorpus(one, FastRecoveryOptions(), load, &faulted_stats);
  const uint64_t hits = fi::HitCount("snapshot.load.map");
  fi::DisarmAll();

  ASSERT_GT(hits, 0u);
  EXPECT_EQ(faulted_stats.cases_loaded, 0u);
  EXPECT_EQ(faulted_stats.cases_rebuilt, 1u);
  ASSERT_EQ(faulted.reports.size(), 1u);
  EXPECT_EQ(VerdictFingerprint(faulted.reports[0]), reference_fp)
      << "the rebuild fallback must be bit-identical to the reference";

  // Disarmed, the same snapshot loads and still reports identically.
  corpus::SnapshotRunStats loaded_stats;
  auto loaded =
      corpus::RunOnCorpus(one, FastRecoveryOptions(), load, &loaded_stats);
  EXPECT_EQ(loaded_stats.cases_loaded, 1u);
  EXPECT_EQ(loaded_stats.cases_rebuilt, 0u);
  ASSERT_EQ(loaded.reports.size(), 1u);
  EXPECT_EQ(VerdictFingerprint(loaded.reports[0]), reference_fp);

  std::remove(
      corpus::SnapshotPathForCase(save.dir, one.front().name).c_str());
}

// A faulted ingestion is atomic: the batch is rejected before anything
// mutates, so the table keeps its row count and data version and every
// version-keyed cache entry stays warm — the next acquire is a hit on the
// same relation object. Disarmed, the same append succeeds, bumps the
// version, and invalidates exactly that relation.
TEST(ChaosMatrixTest, IngestFaultLeavesVersionAndCachesUntouched) {
  fi::DisarmAll();
  auto database = testing_fixtures::MakeOrdersDatabase();
  ResourceGovernor governor;
  std::shared_ptr<const db::JoinedRelation> warm;
  {
    ResourceGovernor::Shard shard(&governor);
    auto rel = database.relation_cache().Acquire(
        database, {"orders", "customers"}, shard);
    ASSERT_TRUE(rel.ok());
    warm = *rel;
  }
  const uint64_t v0 = database.TableVersion("orders");
  const size_t rows0 = database.FindTable("orders")->num_rows();

  fi::Arm("data.ingest.append");
  Status faulted = corpus::AppendSyntheticRows(&database, "orders", 2);
  const uint64_t hits = fi::HitCount("data.ingest.append");
  fi::DisarmAll();

  ASSERT_GT(hits, 0u);
  EXPECT_FALSE(faulted.ok());
  EXPECT_EQ(database.TableVersion("orders"), v0);
  EXPECT_EQ(database.FindTable("orders")->num_rows(), rows0);
  {
    ResourceGovernor::Shard shard(&governor);
    db::RelationCache::AcquireInfo info;
    auto rel = database.relation_cache().Acquire(
        database, {"orders", "customers"}, shard, &info);
    ASSERT_TRUE(rel.ok());
    EXPECT_TRUE(info.hit);
    EXPECT_FALSE(info.built);
    EXPECT_EQ(rel->get(), warm.get())
        << "a rejected append must not withdraw the cached relation";
  }

  ASSERT_TRUE(corpus::AppendSyntheticRows(&database, "orders", 2).ok());
  EXPECT_EQ(database.TableVersion("orders"), v0 + 1);
  {
    ResourceGovernor::Shard shard(&governor);
    db::RelationCache::AcquireInfo info;
    auto rel = database.relation_cache().Acquire(
        database, {"orders", "customers"}, shard, &info);
    ASSERT_TRUE(rel.ok());
    EXPECT_TRUE(info.built)
        << "a successful append must invalidate the relation it touched";
  }
}

// A faulted splice degrades the claim to a full re-evaluation instead of
// trusting the prior verdict: the re-check still succeeds, the report is
// bit-identical to the fault-free splice, and the accounting shows every
// claim re-checked rather than spliced.
TEST(ChaosMatrixTest, SpliceFaultDegradesToReEvaluation) {
  fi::DisarmAll();
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  const corpus::CorpusCase& article = articles.front();
  article.database.relation_cache().Clear();
  auto checker =
      core::AggChecker::Create(&article.database, FastRecoveryOptions());
  ASSERT_TRUE(checker.ok());
  auto prior = checker->Check(article.document);
  ASSERT_TRUE(prior.ok());
  ASSERT_FALSE(prior->verdicts.empty());
  const std::string reference_fp = VerdictFingerprint(*prior);

  // Fault-free with no data change: the whole report splices.
  auto spliced = checker->ReCheck(article.document, *prior);
  ASSERT_TRUE(spliced.ok());
  EXPECT_EQ(spliced->claims_spliced, prior->verdicts.size());
  EXPECT_EQ(spliced->claims_rechecked, 0u);
  EXPECT_EQ(VerdictFingerprint(*spliced), reference_fp);

  fi::Arm("eval.recheck.splice");
  auto degraded = checker->ReCheck(article.document, *prior);
  const uint64_t hits = fi::HitCount("eval.recheck.splice");
  fi::DisarmAll();

  ASSERT_GT(hits, 0u);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_EQ(degraded->claims_spliced, 0u);
  EXPECT_EQ(degraded->claims_rechecked, prior->verdicts.size());
  EXPECT_EQ(VerdictFingerprint(*degraded), reference_fp)
      << "a degraded re-check must still match the prior verdicts on "
         "unchanged data";
}

}  // namespace
}  // namespace aggchecker
