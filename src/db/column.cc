#include "db/column.h"

#include <cmath>
#include <unordered_map>

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
    // Adopt the serialized dictionary: codes verbatim (one memcpy) and the
    // distinct list as decoded at load, exactly as a fresh build assigns
    // them.
    codes_.assign(snap_->codes, snap_->codes + num_rows_);
    distinct_ = std::move(snap_->distinct);
    return;
  }
  distinct_.clear();
  codes_.clear();
  codes_.reserve(values_.size());
  std::unordered_map<Value, int32_t, ValueHasher> index;
  for (const Value& v : values_) {
    if (v.is_null()) {
      codes_.push_back(-1);
      continue;
    }
    const int32_t next = static_cast<int32_t>(distinct_.size());
    // NaN equals nothing, so each NaN cell is a value of its own. It takes
    // a fresh code without entering the map: every NaN hashes alike, and
    // indexing them would make each insert walk all the NaNs before it.
    if (v.type() == ValueType::kDouble && std::isnan(v.AsDoubleExact())) {
      distinct_.push_back(v);
      codes_.push_back(next);
      continue;
    }
    auto [it, inserted] = index.emplace(v, next);
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

ColumnStats Column::Stats() const {
  return ColumnStats{num_rows_, num_rows_ - null_count_,
                     DistinctValues().size()};
}

}  // namespace db
}  // namespace aggchecker
