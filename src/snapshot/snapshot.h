#pragma once

// Versioned on-disk snapshots of fully built checker state (DESIGN.md §15).
//
// A snapshot captures everything a worker process otherwise rebuilds at
// startup — `Database` tables with per-column typed arrays, dictionaries
// and `Column::Flat()` views, and the fragment catalog with its three
// inverted indexes — in one checksummed file. Loading memory-maps the file
// and constructs columns whose flat views alias the mapping directly (zero
// copy), so N workers loading the same snapshot share one
// page-cache-resident image. A loaded state is bit-identical to
// a freshly ingested one: the differential tests compare CheckReport
// fingerprints across thread counts and governor budgets.
//
// Snapshots are a cache, never a source of truth: any mismatch — magic,
// format version, truncation, checksum, a payload whose arrays disagree —
// returns a clean Status and the caller falls back to a full rebuild (with
// a warning, not an error).

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "fragments/catalog.h"
#include "snapshot/format.h"
#include "util/status.h"

namespace aggchecker {
namespace snapshot {

/// \brief Byte accounting of a written snapshot (surfaced by the cold-start
/// bench and the harness).
struct SnapshotStats {
  uint64_t file_bytes = 0;
  uint64_t database_bytes = 0;
  uint64_t catalog_bytes = 0;
};

/// \brief A loaded snapshot: the database and the catalog (if the section
/// was present).
///
/// Each column's arrays alias the mapped image, and each column holds its
/// own keepalive reference on it, so the database may outlive this struct;
/// the catalog is decoded into owned memory.
struct LoadedSnapshot {
  db::Database database;
  /// Null when the snapshot carried no catalog section.
  std::shared_ptr<const fragments::FragmentCatalog> catalog;
};

/// Serializes the built state to `path` (written to a temp file, then
/// renamed — a crashed writer never leaves a half-snapshot behind).
/// `catalog` is optional; passing null omits the section. Forces every
/// column's dictionary and flat view to build first, so the snapshot
/// captures the fully warmed state.
Status WriteSnapshot(const std::string& path, const db::Database& db,
                     const fragments::FragmentCatalog* catalog,
                     SnapshotStats* stats = nullptr);

/// Maps and validates `path`, reconstructing the database (zero-copy
/// columns) and catalog. Any mismatch — missing file, bad magic, newer
/// format version, truncation, checksum failure, malformed payload —
/// returns a descriptive non-OK status; callers degrade to a full rebuild.
Result<LoadedSnapshot> LoadSnapshot(const std::string& path);

}  // namespace snapshot
}  // namespace aggchecker
