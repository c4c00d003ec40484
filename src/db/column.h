#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/column_stats.h"
#include "db/value.h"

namespace aggchecker {
namespace db {

/// \brief External backing for a snapshot-loaded column (DESIGN.md §15).
///
/// Raw typed arrays aliasing a read-only memory-mapped snapshot image; the
/// column adopts them zero-copy (`Flat()` points straight into the mapping)
/// and materializes boxed `Value`s / the dictionary lazily, on first use.
/// `keepalive` pins the mapping for as long as any pointer here is alive.
///
/// Array semantics mirror the build path exactly, so a loaded column is
/// bit-identical to one rebuilt from the same cells:
///  - `nulls[r]`    1 for NULL cells (always present),
///  - `tags[r]`     the cell's ValueType (always present),
///  - `doubles[r]`  `Value::ToDouble()` of every cell, 0.0 for NULL — the
///                  `Flat().doubles` contract; present iff some cell is
///                  numeric,
///  - `longs[r]`    `AsLong()` for long cells, 0 otherwise — the
///                  `Flat().longs` contract; present iff some cell is long,
///  - string cells  live in `string_heap` delimited by `string_offsets`
///                  (rows + 1 entries); present iff some cell is a string,
///  - `codes` / `distinct`  the dictionary exactly as BuildDictionary
///                  assigns it (codes[r] = -1 for NULL, NaN cells each get
///                  their own code).
struct ColumnSnapshotData {
  size_t rows = 0;
  size_t null_count = 0;
  const uint8_t* nulls = nullptr;
  const uint8_t* tags = nullptr;
  const int64_t* longs = nullptr;
  const double* doubles = nullptr;
  const uint32_t* string_offsets = nullptr;
  const char* string_heap = nullptr;
  const int32_t* codes = nullptr;
  std::vector<Value> distinct;  ///< first-appearance order
  std::shared_ptr<const void> keepalive;
};

/// \brief A named, typed column of values.
///
/// The declared type is the most specific type covering all non-null cells
/// (LONG ⊂ DOUBLE; anything mixed with strings becomes STRING). Two lazily
/// built derived representations back the evaluation engine:
///  - a distinct-value dictionary (query-fragment generation, cube
///    bucketing, CountDistinct over dictionary codes), and
///  - a flat typed view (primitive arrays + null flags) that lets the
///    vectorized aggregation kernels run over `int64_t*`/`double*` instead
///    of boxed `Value` variants.
///
/// Thread safety: `Append` must not race with anything, but every const
/// accessor — including the *first* call that builds a lazy representation —
/// is safe to call from any number of threads concurrently (double-checked
/// atomic flag + mutex). The eval engine still pre-builds what its cube
/// workers need during the serial plan phase, so workers normally only hit
/// the fast already-built path; the lock is the safety net for direct API
/// users.
class Column {
 public:
  /// Flat primitive view of the column for typed aggregation kernels.
  /// Exactly one of `longs`/`doubles` is non-null for numeric columns
  /// (`doubles` holds `Value::ToDouble()` of every cell, so mixed
  /// long/double columns coerce exactly like the row-at-a-time path);
  /// both are null for string columns. `nulls[r]` is 1 for NULL cells —
  /// always present, whatever the type.
  struct FlatView {
    const int64_t* longs = nullptr;
    const double* doubles = nullptr;
    const uint8_t* nulls = nullptr;
    size_t size = 0;
  };

  Column(std::string name, ValueType type)
      : name_(std::move(name)), type_(type) {}

  Column(const Column&) = delete;
  Column& operator=(const Column&) = delete;

  /// Snapshot hook: a column whose storage lives in a mapped snapshot
  /// image. `Flat()` is free (pointers into the mapping); boxed values and
  /// the dictionary materialize lazily. Bit-identical to a column built by
  /// appending the same cells (the snapshot differential tests enumerate
  /// this).
  static std::unique_ptr<Column> FromSnapshot(std::string name,
                                              ValueType type,
                                              ColumnSnapshotData data);

  const std::string& name() const { return name_; }
  ValueType type() const { return type_; }
  bool is_numeric() const {
    return type_ == ValueType::kLong || type_ == ValueType::kDouble;
  }

  size_t size() const { return num_rows_; }
  const Value& at(size_t row) const {
    if (!values_built_.load(std::memory_order_acquire)) EnsureValues();
    return values_[row];
  }
  const std::vector<Value>& values() const {
    if (!values_built_.load(std::memory_order_acquire)) EnsureValues();
    return values_;
  }

  void Append(Value v);

  /// Replaces the value at `row` (no bounds check beyond the debug assert a
  /// vector gives you — Table::UpdateCell validates). Shares Append's
  /// mutation contract: a snapshot-backed column materializes and detaches
  /// first, derived representations rebuild lazily, and no const accessor
  /// may run concurrently.
  void Update(size_t row, Value v);

  /// Distinct non-null values, in first-appearance order. Built lazily and
  /// cached; invalidated by Append.
  const std::vector<Value>& DistinctValues() const;

  /// Index of `v` in DistinctValues(), or -1 if absent.
  int DistinctIndexOf(const Value& v) const;

  /// Dictionary codes per row: Codes()[r] is the DistinctValues() index of
  /// row r's value, or -1 for NULL. Built lazily with the dictionary; used
  /// by the cube executor to avoid per-row value hashing. NaN cells each
  /// get their own code (NaN != NaN), mirroring how `Value` sets treat
  /// them as pairwise distinct.
  const std::vector<int32_t>& Codes() const;

  /// Flat typed view (see FlatView). Built lazily and cached; invalidated
  /// by Append.
  const FlatView& Flat() const;

  /// Number of null cells.
  size_t null_count() const { return null_count_; }

  /// Summary statistics for verification-aware probes (DESIGN.md §17).
  /// Built lazily (builds the dictionary and flat view first if needed) and
  /// cached; invalidated by Append/Update like the other derived views.
  const ColumnStats& Stats() const;

 private:
  void EnsureDictionary() const;
  void EnsureFlat() const;
  void EnsureStats() const;
  void EnsureValues() const;
  void BuildDictionary() const;
  void BuildFlat() const;
  void BuildStats() const;
  void MaterializeValues() const;

  std::string name_;
  ValueType type_;
  mutable std::vector<Value> values_;
  size_t num_rows_ = 0;
  size_t null_count_ = 0;

  /// Set for snapshot-loaded columns: the typed arrays live in the mapped
  /// image and `values_` starts empty (values_built_ == false). Cleared by
  /// Append (the column materializes first, then owns its storage again).
  mutable std::unique_ptr<ColumnSnapshotData> snap_;

  // Lazy-build guard: acquire-load on the built flag, first builder takes
  // the mutex. Append resets the flags (no concurrent readers allowed
  // during mutation, per the class contract).
  mutable std::mutex lazy_mu_;
  mutable std::atomic<bool> values_built_{true};
  mutable std::atomic<bool> dict_built_{false};
  mutable std::vector<Value> distinct_;
  mutable std::unordered_map<Value, int, ValueHasher> distinct_index_;
  mutable std::vector<int32_t> codes_;

  mutable std::atomic<bool> flat_built_{false};
  mutable std::vector<int64_t> flat_longs_;
  mutable std::vector<double> flat_doubles_;
  mutable std::vector<uint8_t> flat_nulls_;
  mutable FlatView flat_view_;

  mutable std::atomic<bool> stats_built_{false};
  mutable ColumnStats stats_;
};

}  // namespace db
}  // namespace aggchecker
