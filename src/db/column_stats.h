#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace aggchecker {
namespace db {

/// \brief Per-column summary statistics backing verification-aware probes
/// (DESIGN.md §17).
///
/// Computed lazily by `Column::Stats()` under the column's double-checked
/// lazy-build idiom — snapshot-loaded columns included, from their mapped
/// data, since snapshots do not persist stats — and discarded whenever the
/// column mutates (Append/Update reset the built flag exactly like the
/// dictionary and flat view), so a stale prune can never survive a
/// `DataVersion` bump.
///
/// All numeric aggregates range over the *finite* non-null cells only
/// (`finite_count` of them); NaN/±inf cells set `has_non_finite` instead of
/// poisoning the bounds. With `finite_count == 0`, `min > max` — an empty
/// interval, which probe arithmetic treats as "no finite result attainable".
struct ColumnStats {
  size_t rows = 0;        ///< total cells
  size_t non_null = 0;    ///< cells that are not NULL
  size_t distinct = 0;    ///< exact distinct non-null values (dictionary size)
  bool numeric = false;   ///< LONG or DOUBLE column

  // Numeric-only aggregates (zero-initialized / empty for string columns).
  size_t finite_count = 0;  ///< non-null cells with a finite numeric value
  bool has_non_finite = false;  ///< some non-null cell is NaN or ±inf
  bool integral = false;    ///< every finite cell is an exact integer
  double min = std::numeric_limits<double>::infinity();   ///< over finite
  double max = -std::numeric_limits<double>::infinity();  ///< over finite
  double sum_pos = 0.0;     ///< sum of the positive finite cells
  double sum_neg = 0.0;     ///< sum of the negative finite cells
  double max_abs = 0.0;     ///< max |v| over finite cells
};

}  // namespace db
}  // namespace aggchecker
