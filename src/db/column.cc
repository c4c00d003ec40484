#include "db/column.h"

#include <cmath>

namespace aggchecker {
namespace db {

std::unique_ptr<Column> Column::FromSnapshot(std::string name, ValueType type,
                                             ColumnSnapshotData data) {
  auto column = std::unique_ptr<Column>(new Column(std::move(name), type));
  column->num_rows_ = data.rows;
  column->null_count_ = data.null_count;
  column->snap_ = std::make_unique<ColumnSnapshotData>(std::move(data));
  column->values_built_.store(false, std::memory_order_release);
  return column;
}

void Column::Append(Value v) {
  // A snapshot-backed column materializes its boxed values before the first
  // mutation and then owns its storage like a freshly built column; the
  // reset lazy flags below force dictionary/flat rebuilds from `values_`.
  if (snap_ != nullptr) {
    EnsureValues();
    snap_.reset();
  }
  if (v.is_null()) ++null_count_;
  values_.push_back(std::move(v));
  ++num_rows_;
  dict_built_.store(false, std::memory_order_release);
  flat_built_.store(false, std::memory_order_release);
  stats_built_.store(false, std::memory_order_release);
}

void Column::Update(size_t row, Value v) {
  // Same materialize-then-detach dance as Append: after the first mutation
  // the column owns plain boxed storage and the lazy views rebuild from it.
  if (snap_ != nullptr) {
    EnsureValues();
    snap_.reset();
  }
  Value& cell = values_[row];
  if (cell.is_null()) --null_count_;
  if (v.is_null()) ++null_count_;
  cell = std::move(v);
  dict_built_.store(false, std::memory_order_release);
  flat_built_.store(false, std::memory_order_release);
  stats_built_.store(false, std::memory_order_release);
}

void Column::MaterializeValues() const {
  values_.clear();
  values_.reserve(num_rows_);
  for (size_t r = 0; r < num_rows_; ++r) {
    switch (static_cast<ValueType>(snap_->tags[r])) {
      case ValueType::kNull:
        values_.push_back(Value::Null());
        break;
      case ValueType::kLong:
        values_.push_back(Value(snap_->longs[r]));
        break;
      case ValueType::kDouble:
        // doubles[r] is ToDouble() of the cell, which for a double cell is
        // the stored double verbatim — exact bits round-trip.
        values_.push_back(Value(snap_->doubles[r]));
        break;
      case ValueType::kString: {
        uint32_t begin = snap_->string_offsets[r];
        uint32_t end = snap_->string_offsets[r + 1];
        values_.push_back(
            Value(std::string(snap_->string_heap + begin, end - begin)));
        break;
      }
    }
  }
}

void Column::EnsureValues() const {
  if (values_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (values_built_.load(std::memory_order_relaxed)) return;
  MaterializeValues();
  values_built_.store(true, std::memory_order_release);
}

void Column::BuildDictionary() const {
  if (snap_ != nullptr) {
    // Adopt the serialized dictionary: codes verbatim (one memcpy), the
    // distinct list as decoded at load, and the index map replayed in
    // first-appearance order — exactly how a fresh build assigns ids.
    // (NaN distinct entries never win a find(), same as a fresh map.)
    codes_.assign(snap_->codes, snap_->codes + num_rows_);
    distinct_ = std::move(snap_->distinct);
    distinct_index_.clear();
    distinct_index_.reserve(distinct_.size());
    for (size_t i = 0; i < distinct_.size(); ++i) {
      distinct_index_.emplace(distinct_[i], static_cast<int>(i));
    }
    return;
  }
  distinct_.clear();
  distinct_index_.clear();
  codes_.clear();
  codes_.reserve(values_.size());
  for (const Value& v : values_) {
    if (v.is_null()) {
      codes_.push_back(-1);
      continue;
    }
    auto [it, inserted] =
        distinct_index_.emplace(v, static_cast<int>(distinct_.size()));
    if (inserted) distinct_.push_back(v);
    codes_.push_back(it->second);
  }
}

void Column::EnsureDictionary() const {
  if (dict_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (dict_built_.load(std::memory_order_relaxed)) return;
  BuildDictionary();
  dict_built_.store(true, std::memory_order_release);
}

void Column::BuildFlat() const {
  if (snap_ != nullptr) {
    // Zero-copy: the flat view aliases the mapped snapshot image. The
    // writer serialized these arrays with BuildFlat's exact formulas, so
    // kernels see bit-for-bit what a fresh build would hand them.
    flat_view_.longs = type_ == ValueType::kLong ? snap_->longs : nullptr;
    flat_view_.doubles = is_numeric() ? snap_->doubles : nullptr;
    flat_view_.nulls = snap_->nulls;
    flat_view_.size = num_rows_;
    return;
  }
  flat_longs_.clear();
  flat_doubles_.clear();
  flat_nulls_.clear();
  flat_nulls_.reserve(values_.size());
  const bool numeric = is_numeric();
  if (type_ == ValueType::kLong) flat_longs_.reserve(values_.size());
  if (numeric) flat_doubles_.reserve(values_.size());
  for (const Value& v : values_) {
    flat_nulls_.push_back(v.is_null() ? 1 : 0);
    // NULL slots hold 0; kernels must consult `nulls` before reading.
    // `doubles` is materialized for every numeric column via ToDouble so
    // kernels see bit-for-bit what the row-at-a-time Aggregator sees,
    // including long->double coercion in mixed DOUBLE columns.
    if (numeric) flat_doubles_.push_back(v.is_null() ? 0.0 : v.ToDouble());
    if (type_ == ValueType::kLong) {
      flat_longs_.push_back(
          v.is_null() || v.type() != ValueType::kLong ? 0 : v.AsLong());
    }
  }
  flat_view_.longs =
      type_ == ValueType::kLong ? flat_longs_.data() : nullptr;
  flat_view_.doubles = numeric ? flat_doubles_.data() : nullptr;
  flat_view_.nulls = flat_nulls_.data();
  flat_view_.size = values_.size();
}

void Column::EnsureFlat() const {
  if (flat_built_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (flat_built_.load(std::memory_order_relaxed)) return;
  BuildFlat();
  flat_built_.store(true, std::memory_order_release);
}

const std::vector<int32_t>& Column::Codes() const {
  EnsureDictionary();
  return codes_;
}

const std::vector<Value>& Column::DistinctValues() const {
  EnsureDictionary();
  return distinct_;
}

const Column::FlatView& Column::Flat() const {
  EnsureFlat();
  return flat_view_;
}

void Column::BuildStats() const {
  ColumnStats s;
  s.rows = num_rows_;
  s.non_null = num_rows_ - null_count_;
  s.distinct = distinct_.size();
  s.numeric = is_numeric();
  if (s.numeric) {
    s.integral = true;
    const double* doubles = flat_view_.doubles;
    const uint8_t* nulls = flat_view_.nulls;
    for (size_t r = 0; r < flat_view_.size; ++r) {
      if (nulls[r]) continue;
      double d = doubles[r];
      if (!std::isfinite(d)) {
        s.has_non_finite = true;
        continue;
      }
      ++s.finite_count;
      if (d < s.min) s.min = d;
      if (d > s.max) s.max = d;
      if (d > 0) {
        s.sum_pos += d;
      } else if (d < 0) {
        s.sum_neg += d;
      }
      double a = std::fabs(d);
      if (a > s.max_abs) s.max_abs = a;
      if (s.integral && std::floor(d) != d) s.integral = false;
    }
  }
  stats_ = s;
}

void Column::EnsureStats() const {
  if (stats_built_.load(std::memory_order_acquire)) return;
  // Build the prerequisites *before* taking lazy_mu_ — EnsureFlat and
  // EnsureDictionary take the same mutex.
  EnsureFlat();
  EnsureDictionary();
  std::lock_guard<std::mutex> lock(lazy_mu_);
  if (stats_built_.load(std::memory_order_relaxed)) return;
  BuildStats();
  stats_built_.store(true, std::memory_order_release);
}

const ColumnStats& Column::Stats() const {
  EnsureStats();
  return stats_;
}

int Column::DistinctIndexOf(const Value& v) const {
  EnsureDictionary();
  auto it = distinct_index_.find(v);
  return it == distinct_index_.end() ? -1 : it->second;
}

}  // namespace db
}  // namespace aggchecker
