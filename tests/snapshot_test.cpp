// Versioned on-disk snapshots (DESIGN.md §15): save/load round trip, the
// differential bit-identity contract — a snapshot-loaded checker must
// produce CheckReports byte-identical to a freshly built one at every
// thread count and governor budget — and the corruption ladder: a
// truncated file, a flipped payload byte, and a future-format header each
// fail with a clean descriptive Status and degrade to a full rebuild, and
// patched payload bytes behind rewritten checksums fail the reader's
// structural checks.

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
#include "db/relation_cache.h"
#include "fragments/catalog.h"
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

template <typename T>
T Peek(const std::string& bytes, size_t at) {
  T value{};
  if (at + sizeof(T) > bytes.size()) {
    ADD_FAILURE() << "read past the end of the file at " << at;
    return value;
  }
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void Poke(std::string* bytes, size_t at, T value) {
  std::memcpy(&(*bytes)[at], &value, sizeof(T));
}

std::vector<snapshot::SectionEntry> SectionTable(const std::string& bytes) {
  const auto header = Peek<snapshot::FileHeader>(bytes, 0);
  std::vector<snapshot::SectionEntry> table(header.section_count);
  std::memcpy(table.data(), bytes.data() + sizeof(header),
              table.size() * sizeof(snapshot::SectionEntry));
  return table;
}

/// Recomputes every section checksum and the section-table checksum, so a
/// patched payload byte reaches the reader's structural checks instead of
/// failing on its checksum.
void RewriteChecksums(std::string* bytes) {
  const auto* data = reinterpret_cast<const uint8_t*>(bytes->data());
  std::vector<snapshot::SectionEntry> table = SectionTable(*bytes);
  for (snapshot::SectionEntry& entry : table) {
    entry.checksum = snapshot::Fnv1a64(data + entry.offset, entry.size);
  }
  const size_t table_bytes = table.size() * sizeof(snapshot::SectionEntry);
  std::memcpy(&(*bytes)[sizeof(snapshot::FileHeader)], table.data(),
              table_bytes);
  auto header = Peek<snapshot::FileHeader>(*bytes, 0);
  header.table_checksum =
      snapshot::Fnv1a64(data + sizeof(snapshot::FileHeader), table_bytes);
  Poke(bytes, 0, header);
}

size_t SectionOffset(const std::string& bytes, snapshot::SectionKind kind) {
  for (const snapshot::SectionEntry& entry : SectionTable(bytes)) {
    if (entry.kind == static_cast<uint32_t>(kind)) return entry.offset;
  }
  ADD_FAILURE() << "no section of kind " << static_cast<uint32_t>(kind);
  return 0;
}

/// One table with one STRING column of `rows` >= 2 cells and no NULLs,
/// alternating "a" and "b": two distinct values, one heap byte per row. At
/// three rows: string offsets 0, 1, 2, 3 and codes 0, 1, 0.
db::Database MakeSwatchDatabase(size_t rows = 3) {
  db::Database database("paint");
  db::Table table("swatches");
  (void)table.AddColumn("colour", db::ValueType::kString);
  for (size_t r = 0; r < rows; ++r) {
    (void)table.AddRow({db::Value(r % 2 == 0 ? "a" : "b")});
  }
  (void)database.AddTable(std::move(table));
  return database;
}

/// File offsets of the fields of the swatch column, found by walking the
/// writer's layout of the database section.
struct SwatchColumnLayout {
  size_t type = 0;        ///< u8 column type
  size_t null_count = 0;  ///< u64 header NULL count
  size_t nulls = 0;       ///< u8[rows] NULL flags
  size_t tags = 0;        ///< u8[rows] cell tags
  size_t offsets = 0;     ///< u32[rows + 1] string offsets
  size_t distinct = 0;    ///< first dictionary value (its tag byte)
  size_t codes = 0;       ///< i32[rows] dictionary codes
};

SwatchColumnLayout LocateSwatchColumn(const std::string& bytes,
                                      size_t rows = 3) {
  constexpr size_t kDistinct = 2;
  auto align8 = [](size_t at) { return (at + 7) / 8 * 8; };
  auto skip_str = [&](size_t at) { return at + 4 + Peek<uint32_t>(bytes, at); };
  size_t at = SectionOffset(bytes, snapshot::SectionKind::kDatabase);
  at = skip_str(at) + 4;       // database name, table count
  at = skip_str(at) + 4 + 16;  // table name, column count, rows, version
  SwatchColumnLayout layout;
  layout.type = skip_str(at);  // after the column name
  layout.null_count = layout.type + 1 + 8;
  layout.nulls = align8(layout.null_count + 8 + 1);  // after the flags byte
  layout.tags = layout.nulls + rows;
  layout.offsets = align8(layout.tags + rows);
  const size_t heap = layout.offsets + 4 * (rows + 1);
  // After the heap (its size is the last offset) and the u32 distinct count.
  layout.distinct = align8(heap + Peek<uint32_t>(bytes, heap - 4)) + 4;
  at = layout.distinct;
  for (size_t i = 0; i < kDistinct; ++i) {
    at = skip_str(at + 1);  // tag byte, then the string
  }
  layout.codes = align8(at);
  return layout;
}

struct Patched {
  const char* label;
  std::string bytes;
};

/// A copy of `pristine` with `value` written at file offset `at`.
template <typename T>
Patched Patch(const char* label, const std::string& pristine, size_t at,
              T value) {
  Patched variant{label, pristine};
  Poke(&variant.bytes, at, value);
  return variant;
}

/// Writes each patched file over `path`, checksums rewritten, and expects
/// loading it to fail with ParseError (a variant that loads reports OK).
void ExpectEachRejected(const std::string& path,
                        const std::vector<Patched>& variants) {
  for (const Patched& variant : variants) {
    std::string bytes = variant.bytes;
    RewriteChecksums(&bytes);
    WriteFile(path, bytes);
    auto loaded = snapshot::LoadSnapshot(path);
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError)
        << variant.label << ": " << loaded.status().ToString();
  }
}

// Save -> load -> check: the loaded database and catalog reproduce the
// saving checker's verdicts byte for byte.
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
                                      &fresh->catalog(), &stats)
                  .ok());
  EXPECT_GT(stats.file_bytes, 0u);
  EXPECT_GT(stats.database_bytes, 0u);
  EXPECT_GT(stats.catalog_bytes, 0u);

  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->database.TotalRows(), article.database.TotalRows());
  ASSERT_NE(loaded->catalog, nullptr);

  core::CheckOptions options;
  options.prebuilt_catalog = loaded->catalog;
  auto reloaded = core::AggChecker::Create(&loaded->database, options);
  ASSERT_TRUE(reloaded.ok());
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
  ASSERT_TRUE(snapshot::WriteSnapshot(path, database, nullptr).ok());

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
  ASSERT_TRUE(snapshot::WriteSnapshot(path, database, nullptr).ok());

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

// Patched-byte cases: each variant edits one payload field of a pristine
// one-column file so the arrays disagree, rewrites the checksums, and must
// fail with ParseError. Unchecked, each loaded, and some sent a later cube
// scan or materialization past an array's end.
TEST(SnapshotTest, RejectsMalformedColumnPayload) {
  ::mkdir(kDir, 0755);
  const std::string path = std::string(kDir) + "/payload.snap";
  ASSERT_TRUE(
      snapshot::WriteSnapshot(path, MakeSwatchDatabase(), nullptr).ok());
  const std::string pristine = ReadFile(path);
  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->database.table(0).column(0).values().size(), 3u);

  const SwatchColumnLayout at = LocateSwatchColumn(pristine);
  ASSERT_EQ(Peek<uint8_t>(pristine, at.type),
            static_cast<uint8_t>(db::ValueType::kString));
  ASSERT_EQ(Peek<uint32_t>(pristine, at.offsets + 4 * 3), 3u);
  ASSERT_EQ(Peek<int32_t>(pristine, at.codes + 4), 1);

  const auto kLong = static_cast<uint8_t>(db::ValueType::kLong);
  ExpectEachRejected(
      path,
      {
          Patch<int32_t>("code past the dictionary", pristine, at.codes + 4,
                         5),
          Patch<uint8_t>("unknown cell tag", pristine, at.tags + 2, 7),
          Patch<uint8_t>("NULL flag on a value", pristine, at.nulls, 1),
          Patch<uint64_t>("header NULL count", pristine, at.null_count, 2),
          Patch<uint32_t>("decreasing string offsets", pristine,
                          at.offsets + 4, 9),
          Patch<uint32_t>("string offsets not from 0", pristine, at.offsets,
                          1),
          Patch("numeric column without doubles", pristine, at.type, kLong),
      });

  // At an even row count the offsets end off an 8-byte boundary, so a heap
  // size past the section end fails the reader there, and skipping the
  // padding that follows must not spin on the failed reader.
  ASSERT_TRUE(
      snapshot::WriteSnapshot(path, MakeSwatchDatabase(2), nullptr).ok());
  const std::string two_rows = ReadFile(path);
  const size_t heap_size = LocateSwatchColumn(two_rows, 2).offsets + 4 * 2;
  ASSERT_EQ(Peek<uint32_t>(two_rows, heap_size), 2u);
  ExpectEachRejected(path, {Patch<uint32_t>("heap past the section end",
                                            two_rows, heap_size, 1000)});
  std::remove(path.c_str());
}

// Unknown value tags and out-of-range enum bytes fail the load instead of
// decoding as NULL or as an AggFn / fragment type that does not exist. The
// bad value tag fails the reader mid-section, so it also shows that the
// reader's Align8 does not spin once the reader has failed.
TEST(SnapshotTest, RejectsUnknownTagsAndEnumBytes) {
  const db::Database database = MakeSwatchDatabase();
  auto catalog = fragments::FragmentCatalog::Build(database);
  ASSERT_TRUE(catalog.ok());
  ::mkdir(kDir, 0755);
  const std::string path = std::string(kDir) + "/tags.snap";
  ASSERT_TRUE(snapshot::WriteSnapshot(path, database, &*catalog).ok());
  const std::string pristine = ReadFile(path);
  auto loaded = snapshot::LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_NE(loaded->catalog, nullptr);

  const size_t value_tag = LocateSwatchColumn(pristine).distinct;
  ASSERT_EQ(Peek<uint8_t>(pristine, value_tag),
            static_cast<uint8_t>(db::ValueType::kString));
  // Slot 0 holds the aggregation-function fragments, Count first: a u32
  // count, then the first fragment's type and AggFn bytes.
  const size_t fragment =
      SectionOffset(pristine, snapshot::SectionKind::kCatalog) + 4;
  ASSERT_EQ(Peek<uint8_t>(pristine, fragment), 0u);
  ASSERT_EQ(Peek<uint8_t>(pristine, fragment + 1),
            static_cast<uint8_t>(db::AggFn::kCount));

  ExpectEachRejected(
      path,
      {
          Patch<uint8_t>("dictionary value tag 9", pristine, value_tag, 9),
          Patch<uint8_t>("fragment type outside its slot", pristine,
                         fragment, 1),
          Patch<uint8_t>("AggFn 200", pristine, fragment + 1, 200),
      });
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aggchecker
