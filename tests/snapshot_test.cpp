// Versioned on-disk snapshots (DESIGN.md §15): save/load round trip, the
// differential bit-identity contract — a snapshot-loaded checker must
// produce CheckReports byte-identical to a freshly built one at every
// thread count and governor budget — and the corruption ladder: a
// truncated file, a flipped payload byte, and a future-format header each
// fail with a clean descriptive Status and degrade to a full rebuild.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/harness.h"
#include "db/query_interner.h"
#include "db/relation_cache.h"
#include "snapshot/format.h"
#include "snapshot/snapshot.h"
#include "test_fixtures.h"

namespace aggchecker {
namespace {

const char* kDir = "snapshot_test_dir";
/// The differential sweep's own directory: ctest runs tests as parallel
/// processes, and CorruptionFallsBackToRebuild corrupts and deletes a case
/// snapshot under kDir that this sweep would otherwise be loading.
const char* kDiffDir = "snapshot_test_diff_dir";

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Save -> load -> check: the loaded database, catalog, and interner image
// reproduce the saving checker's verdicts byte for byte.
TEST(SnapshotTest, RoundTripReproducesCheckerState) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  const corpus::CorpusCase& article = articles.front();

  auto fresh = core::AggChecker::Create(&article.database, {});
  ASSERT_TRUE(fresh.ok());
  auto fresh_report = fresh->Check(article.document);
  ASSERT_TRUE(fresh_report.ok());

  ::mkdir(kDir, 0755);
  const std::string path = std::string(kDir) + "/roundtrip.snap";
  snapshot::SnapshotStats stats;
  ASSERT_TRUE(snapshot::WriteSnapshot(path, fresh->database(),
                                      &fresh->catalog(),
                                      &fresh->engine().interner(), &stats)
                  .ok());
  EXPECT_GT(stats.file_bytes, 0u);
  EXPECT_GT(stats.database_bytes, 0u);
  EXPECT_GT(stats.catalog_bytes, 0u);
  EXPECT_GT(stats.interner_bytes, 0u);

  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->database.TotalRows(), article.database.TotalRows());
  ASSERT_NE(loaded->catalog, nullptr);
  ASSERT_TRUE(loaded->has_interner());

  core::CheckOptions options;
  options.prebuilt_catalog = loaded->catalog;
  auto reloaded = core::AggChecker::Create(&loaded->database, options);
  ASSERT_TRUE(reloaded.ok());
  ASSERT_TRUE(loaded->SeedInterner(&reloaded->engine().interner()).ok());
  auto reloaded_report = reloaded->Check(article.document);
  ASSERT_TRUE(reloaded_report.ok());
  EXPECT_EQ(core::FleetVerdictFingerprint(*reloaded_report),
            core::FleetVerdictFingerprint(*fresh_report));
  std::remove(path.c_str());
}

// The tentpole acceptance sweep: snapshot-loaded runs must be bit-identical
// to freshly built runs at 1/2/8 threads, with and without a governor
// budget (a budget tight enough to cut claims partial must cut the same
// claims either way — governed runs are part of the identity surface).
TEST(SnapshotTest, DifferentialBitIdentityAcrossThreadsAndBudgets) {
  auto corpus = corpus::EmbeddedArticles();
  ASSERT_FALSE(corpus.empty());

  ::mkdir(kDiffDir, 0755);
  corpus::SnapshotRunOptions save;
  save.dir = kDiffDir;
  save.save = true;
  corpus::SnapshotRunStats save_stats;
  auto saved =
      corpus::RunOnCorpus(corpus, core::CheckOptions{}, save, &save_stats);
  ASSERT_EQ(save_stats.cases_saved, corpus.size());
  EXPECT_GT(save_stats.snapshot_bytes, 0u);

  corpus::SnapshotRunOptions load;
  load.dir = kDiffDir;
  load.load = true;

  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    for (uint64_t budget : {uint64_t{0}, uint64_t{20'000}}) {
      core::CheckOptions options;
      options.model.num_threads = threads;
      options.governor.max_row_scans = budget;

      auto fresh = corpus::RunOnCorpus(corpus, options);
      corpus::SnapshotRunStats load_stats;
      auto snap = corpus::RunOnCorpus(corpus, options, load, &load_stats);
      EXPECT_EQ(load_stats.cases_loaded, corpus.size())
          << "threads=" << threads << " budget=" << budget;
      EXPECT_EQ(load_stats.cases_rebuilt, 0u);

      ASSERT_EQ(fresh.reports.size(), snap.reports.size());
      for (size_t i = 0; i < fresh.reports.size(); ++i) {
        EXPECT_EQ(core::FleetVerdictFingerprint(snap.reports[i]),
                  core::FleetVerdictFingerprint(fresh.reports[i]))
            << corpus[i].name << " diverged at threads=" << threads
            << " budget=" << budget;
      }
    }
  }
  for (const auto& test_case : corpus) {
    std::remove(corpus::SnapshotPathForCase(kDiffDir, test_case.name).c_str());
  }
}

// The corruption ladder: every damaged variant fails LoadSnapshot with the
// documented code and message, and the harness degrades each to a clean
// full rebuild whose report matches the snapshot-free reference.
TEST(SnapshotTest, CorruptionFallsBackToRebuild) {
  auto articles = corpus::EmbeddedArticles();
  ASSERT_FALSE(articles.empty());
  std::vector<corpus::CorpusCase> one;
  one.push_back(std::move(articles.front()));

  ::mkdir(kDir, 0755);
  corpus::SnapshotRunOptions save;
  save.dir = kDir;
  save.save = true;
  corpus::SnapshotRunStats save_stats;
  auto reference =
      corpus::RunOnCorpus(one, core::CheckOptions{}, save, &save_stats);
  ASSERT_EQ(save_stats.cases_saved, 1u);
  ASSERT_EQ(reference.reports.size(), 1u);
  const std::string reference_fp =
      core::FleetVerdictFingerprint(reference.reports[0]);

  const std::string path = corpus::SnapshotPathForCase(kDir, one[0].name);
  const std::string pristine = ReadFile(path);
  ASSERT_GT(pristine.size(), sizeof(snapshot::FileHeader));

  // Variant 1: file cut in half (a crashed copy; the atomic writer itself
  // never leaves one behind).
  std::string truncated = pristine.substr(0, pristine.size() / 2);
  // Variant 2: one payload bit flipped near the end of the file.
  std::string flipped = pristine;
  flipped[flipped.size() - 9] =
      static_cast<char>(flipped[flipped.size() - 9] ^ 0x40);
  // Variant 3: a snapshot from a future format revision.
  std::string future = pristine;
  const uint32_t version = snapshot::kFormatVersion + 1;
  std::memcpy(&future[8], &version, sizeof(version));

  struct Variant {
    const char* label;
    const std::string* bytes;
    StatusCode code;
  };
  const Variant variants[] = {
      {"truncated", &truncated, StatusCode::kParseError},
      {"flipped-byte", &flipped, StatusCode::kParseError},
      {"future-version", &future, StatusCode::kUnsupported},
  };
  for (const Variant& variant : variants) {
    WriteFile(path, *variant.bytes);
    auto direct = snapshot::LoadSnapshot(path);
    ASSERT_FALSE(direct.ok()) << variant.label;
    EXPECT_EQ(direct.status().code(), variant.code)
        << variant.label << ": " << direct.status().ToString();

    corpus::SnapshotRunOptions load;
    load.dir = kDir;
    load.load = true;
    corpus::SnapshotRunStats stats;
    auto run = corpus::RunOnCorpus(one, core::CheckOptions{}, load, &stats);
    EXPECT_EQ(stats.cases_loaded, 0u) << variant.label;
    EXPECT_EQ(stats.cases_rebuilt, 1u) << variant.label;
    ASSERT_EQ(run.reports.size(), 1u) << variant.label;
    EXPECT_EQ(core::FleetVerdictFingerprint(run.reports[0]), reference_fp)
        << variant.label << ": rebuild fallback diverged";
  }

  // The pristine bytes restored, the snapshot loads again.
  WriteFile(path, pristine);
  corpus::SnapshotRunOptions load;
  load.dir = kDir;
  load.load = true;
  corpus::SnapshotRunStats stats;
  auto run = corpus::RunOnCorpus(one, core::CheckOptions{}, load, &stats);
  EXPECT_EQ(stats.cases_loaded, 1u);
  ASSERT_EQ(run.reports.size(), 1u);
  EXPECT_EQ(core::FleetVerdictFingerprint(run.reports[0]), reference_fp);
  std::remove(path.c_str());
}

// Incremental re-verification satellite (DESIGN.md §16): per-table data
// versions ride in the kDatabase section. A bumped table round-trips its
// counter, post-load ingestion continues the sequence and invalidates
// version-keyed caches exactly as on a built database, and a pre-version
// format header (v1) is rejected with a clean Unsupported so callers
// rebuild instead of misreading bytes.
TEST(SnapshotTest, DataVersionsRoundTripAndInvalidateAfterLoad) {
  auto database = testing_fixtures::MakeOrdersDatabase();
  ASSERT_TRUE(corpus::AppendSyntheticRows(&database, "orders", 1).ok());
  ASSERT_EQ(database.TableVersion("orders"), 2u);
  ASSERT_EQ(database.TableVersion("customers"), 1u);

  ::mkdir(kDir, 0755);
  const std::string path = std::string(kDir) + "/versions.snap";
  ASSERT_TRUE(snapshot::WriteSnapshot(path, database, nullptr, nullptr).ok());

  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->database.TableVersion("orders"), 2u)
      << "the version counter must survive the round trip";
  EXPECT_EQ(loaded->database.TableVersion("customers"), 1u);

  // Ingestion into the loaded database continues the version sequence and
  // invalidates the relations that read the touched table.
  ResourceGovernor governor;
  {
    ResourceGovernor::Shard shard(&governor);
    ASSERT_TRUE(loaded->database.relation_cache()
                    .Acquire(loaded->database, {"orders", "customers"}, shard)
                    .ok());
  }
  ASSERT_TRUE(
      corpus::AppendSyntheticRows(&loaded->database, "orders", 1).ok());
  EXPECT_EQ(loaded->database.TableVersion("orders"), 3u);
  {
    ResourceGovernor::Shard shard(&governor);
    db::RelationCache::AcquireInfo info;
    ASSERT_TRUE(loaded->database.relation_cache()
                    .Acquire(loaded->database, {"orders", "customers"},
                             shard, &info)
                    .ok());
    EXPECT_TRUE(info.built)
        << "a post-load append must invalidate the cached relation";
  }

  // A v1 header (the pre-version layout) must be rejected, not misread:
  // the v1 kDatabase section has no per-table version field, so decoding
  // it with this reader would shift every following byte.
  std::string pristine = ReadFile(path);
  const uint32_t old_version = 1;
  std::memcpy(&pristine[8], &old_version, sizeof(old_version));
  WriteFile(path, pristine);
  auto rejected = snapshot::LoadSnapshot(path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnsupported)
      << rejected.status().ToString();
  std::remove(path.c_str());
}

// Format v4 (DESIGN.md §15, §17): snapshots do not persist per-column
// statistics; a loaded column derives its counts from the persisted
// dictionary, and they must equal what a clean build computes. A v3 header
// (the layout with a stats blob) is rejected with Unsupported so callers
// rebuild instead of misreading.
TEST(SnapshotTest, ColumnStatsRideTheSnapshot) {
  auto database = testing_fixtures::MakeOrdersDatabase();

  ::mkdir(kDir, 0755);
  const std::string path = std::string(kDir) + "/stats.snap";
  ASSERT_TRUE(snapshot::WriteSnapshot(path, database, nullptr, nullptr).ok());

  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (size_t t = 0; t < database.num_tables(); ++t) {
    const db::Table& built = database.table(t);
    const db::Table& thawed = loaded->database.table(t);
    ASSERT_EQ(built.num_columns(), thawed.num_columns());
    for (size_t c = 0; c < built.num_columns(); ++c) {
      const db::ColumnStats a = built.column(c).Stats();
      const db::ColumnStats b = thawed.column(c).Stats();
      EXPECT_EQ(a.rows, b.rows);
      EXPECT_EQ(a.non_null, b.non_null);
      EXPECT_EQ(a.distinct, b.distinct);
    }
  }

  // A v3 header must be rejected outright: v3 columns carry a stats blob
  // this reader no longer expects, so decoding them would misalign every
  // later section.
  std::string pristine = ReadFile(path);
  const uint32_t v3 = 3;
  std::memcpy(&pristine[8], &v3, sizeof(v3));
  WriteFile(path, pristine);
  auto rejected = snapshot::LoadSnapshot(path);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnsupported)
      << rejected.status().ToString();
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aggchecker
