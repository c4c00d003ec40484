#pragma once

#include <cstddef>

namespace aggchecker {
namespace db {

/// \brief Per-column cell counts. Nothing in the checker reads them; the
/// end-to-end benchmark (bench/e2e) reads `distinct` (DESIGN.md §17).
///
/// `Column::Stats()` derives them on every call from the column's row and
/// NULL counters and its dictionary, so they follow every mutation by
/// construction; snapshots persist none of them (DESIGN.md §15).
struct ColumnStats {
  size_t rows = 0;      ///< total cells
  size_t non_null = 0;  ///< cells that are not NULL
  size_t distinct = 0;  ///< exact distinct non-null values (dictionary size)
};

}  // namespace db
}  // namespace aggchecker
