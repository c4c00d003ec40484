// Snapshot cold start: build-from-CSV vs load-from-snapshot time-to-ready
// on the Table 6 dataset (DESIGN.md §15). For every case the two paths end
// in the same place — a checker whose database and fragment catalog are
// fully built — and the untimed differential step verifies their reports
// are bit-identical. The timed regions:
//
//   build:  ImportCase (CSV parse -> typed columns) + AggChecker::Create
//           (fragment enumeration + three inverted indexes)
//   load:   LoadSnapshot (mmap, zero-copy columns, decoded catalog)
//           + AggChecker::Create with the prebuilt catalog
//
// Gate (scripts/check.sh snapshot-smoke runs --smoke): load must be >= 5x
// faster than build, and reports must not diverge. Results land in
// BENCH_snapshot.json. `--snapshot=<dir>` overrides where .snap files go.

#include <sys/stat.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/aggchecker.h"
#include "core/fleet_scheduler.h"
#include "corpus/embedded_articles.h"
#include "corpus/export.h"
#include "corpus/generator.h"
#include "util/timer.h"

namespace {

using namespace aggchecker;

constexpr double kSpeedupGate = 5.0;

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string snap_dir = "coldstart_snapshots";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--snapshot=", 11) == 0) {
      snap_dir = argv[i] + 11;
    }
  }
  bench::Header("Snapshot cold start: build-from-CSV vs mmap load",
                "time-to-ready; gate: load >= 5x faster, bit-identical");

  // The Table 6 dataset: embedded articles plus the scaled synthetic
  // corpus (scan cost dominates). Smoke keeps the same shape, smaller.
  corpus::GeneratorOptions gen;
  gen.num_cases = smoke ? 3 : 50;
  gen.row_scale = smoke ? 2 : 20;
  std::vector<corpus::CorpusCase> cases = corpus::EmbeddedArticles();
  for (auto& c : corpus::GenerateCorpus(gen)) cases.push_back(std::move(c));
  size_t total_rows = 0;
  for (const auto& c : cases) total_rows += c.database.TotalRows();
  std::printf("corpus: %zu cases, %zu total rows (mode=%s)\n", cases.size(),
              total_rows, smoke ? "smoke" : "full");

  const std::string csv_dir = "coldstart_csv";
  ::mkdir(csv_dir.c_str(), 0755);
  ::mkdir(snap_dir.c_str(), 0755);

  double build_seconds = 0, load_seconds = 0;
  snapshot::SnapshotStats total_bytes;
  bool bit_identical = true;

  for (const corpus::CorpusCase& original : cases) {
    // Prepare (untimed): publish the case to CSV, then snapshot the
    // CSV-imported database — the snapshot and the timed build path must
    // start from the identical source of truth (ImportCase drops foreign
    // keys, so snapshotting the pre-export database would compare
    // different datasets).
    Status exported = corpus::ExportCase(original, csv_dir);
    if (!exported.ok()) {
      std::fprintf(stderr, "export %s: %s\n", original.name.c_str(),
                   exported.ToString().c_str());
      return 1;
    }
    const std::string case_dir = csv_dir + "/" + original.name;
    auto seed_case = corpus::ImportCase(case_dir);
    if (!seed_case.ok()) {
      std::fprintf(stderr, "import %s: %s\n", original.name.c_str(),
                   seed_case.status().ToString().c_str());
      return 1;
    }
    const std::string snap_path =
        corpus::SnapshotPathForCase(snap_dir, original.name);
    {
      auto seeder = core::AggChecker::Create(&seed_case->database, {});
      if (!seeder.ok()) return 1;
      snapshot::SnapshotStats stats;
      Status saved = snapshot::WriteSnapshot(snap_path, seeder->database(),
                                             &seeder->catalog(), &stats);
      if (!saved.ok()) {
        std::fprintf(stderr, "snapshot %s: %s\n", original.name.c_str(),
                     saved.ToString().c_str());
        return 1;
      }
      total_bytes.file_bytes += stats.file_bytes;
      total_bytes.database_bytes += stats.database_bytes;
      total_bytes.catalog_bytes += stats.catalog_bytes;
    }

    // Timed build path: CSV -> database -> catalog.
    Timer build_timer;
    auto built = corpus::ImportCase(case_dir);
    if (!built.ok()) return 1;
    auto built_checker = core::AggChecker::Create(&built->database, {});
    if (!built_checker.ok()) return 1;
    build_seconds += build_timer.ElapsedSeconds();

    // Timed load path: mmap -> zero-copy database + decoded catalog ->
    // checker with the prebuilt catalog.
    Timer load_timer;
    auto loaded = snapshot::LoadSnapshot(snap_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load %s: %s\n", original.name.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    core::CheckOptions load_options;
    load_options.prebuilt_catalog = loaded->catalog;
    auto loaded_checker =
        core::AggChecker::Create(&loaded->database, load_options);
    if (!loaded_checker.ok()) return 1;
    load_seconds += load_timer.ElapsedSeconds();

    // Differential step (untimed): both cold starts must report
    // byte-identically on the case's document.
    auto built_report = built_checker->Check(built->document);
    auto loaded_report = loaded_checker->Check(built->document);
    if (!built_report.ok() || !loaded_report.ok() ||
        core::FleetVerdictFingerprint(*built_report) !=
            core::FleetVerdictFingerprint(*loaded_report)) {
      std::printf("BIT-IDENTITY VIOLATION on %s\n", original.name.c_str());
      bit_identical = false;
    }
  }

  const double speedup = load_seconds > 0 ? build_seconds / load_seconds : 0;
  std::printf("build-from-CSV:     %8.3fs\n", build_seconds);
  std::printf("load-from-snapshot: %8.3fs\n", load_seconds);
  std::printf("speedup:            x%.1f (gate: >= x%.0f)\n", speedup,
              kSpeedupGate);
  std::printf("snapshot bytes:     %llu (database %llu, catalog %llu)\n",
              static_cast<unsigned long long>(total_bytes.file_bytes),
              static_cast<unsigned long long>(total_bytes.database_bytes),
              static_cast<unsigned long long>(total_bytes.catalog_bytes));
  std::printf("bit-identity build-vs-load over %zu cases: %s\n",
              cases.size(), bit_identical ? "OK" : "FAILED");

  // Degraded path: a damaged snapshot must fail cleanly (callers rebuild).
  {
    const std::string snap_path =
        corpus::SnapshotPathForCase(snap_dir, cases.front().name);
    if (FILE* f = std::fopen(snap_path.c_str(), "r+b")) {
      std::fseek(f, 9, SEEK_SET);  // inside the version/header region
      std::fputc(0x7f, f);
      std::fclose(f);
      auto corrupt = snapshot::LoadSnapshot(snap_path);
      std::printf("corrupted snapshot load: %s\n",
                  corrupt.ok() ? "LOADED (BUG)"
                               : corrupt.status().ToString().c_str());
      if (corrupt.ok()) bit_identical = false;
    }
  }

  if (FILE* out = std::fopen("BENCH_snapshot.json", "w")) {
    std::fprintf(out, "{\n  \"mode\": \"%s\",\n  \"cases\": %zu,\n",
                 smoke ? "smoke" : "full", cases.size());
    std::fprintf(out,
                 "  \"build_seconds\": %.6f,\n  \"load_seconds\": %.6f,\n"
                 "  \"speedup\": %.2f,\n  \"speedup_gate\": %.1f,\n",
                 build_seconds, load_seconds, speedup, kSpeedupGate);
    std::fprintf(out,
                 "  \"snapshot_bytes\": %llu,\n  \"section_bytes\": "
                 "{\"database\": %llu, \"catalog\": %llu},\n",
                 static_cast<unsigned long long>(total_bytes.file_bytes),
                 static_cast<unsigned long long>(total_bytes.database_bytes),
                 static_cast<unsigned long long>(total_bytes.catalog_bytes));
    std::fprintf(out, "  \"bit_identical\": %s,\n  ",
                 bit_identical ? "true" : "false");
    bench::WriteThreadReportJson(out, bench::MakeThreadReport(1));
    std::fprintf(out, "\n}\n");
    std::fclose(out);
    std::printf("wrote BENCH_snapshot.json\n");
  }

  if (!bit_identical) return 1;
  if (speedup < kSpeedupGate) {
    std::fprintf(stderr,
                 "bench_snapshot_coldstart: FAIL — load is only x%.2f the "
                 "CSV build path (gate: >= x%.0f)\n",
                 speedup, kSpeedupGate);
    return 1;
  }
  return 0;
}
