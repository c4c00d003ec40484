#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <variant>

namespace aggchecker {
namespace db {

/// Column / value types supported by the engine.
enum class ValueType {
  kNull = 0,
  kLong,
  kDouble,
  kString,
};

const char* ValueTypeName(ValueType type);

/// \brief A single cell value: NULL, 64-bit integer, double, or string.
///
/// Values are immutable once constructed. Comparison between numeric types
/// coerces to double; strings compare lexicographically; NULL compares equal
/// only to NULL and sorts before everything else.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  static Value Null() { return Value(); }

  ValueType type() const {
    switch (data_.index()) {
      case 0:
        return ValueType::kNull;
      case 1:
        return ValueType::kLong;
      case 2:
        return ValueType::kDouble;
      default:
        return ValueType::kString;
    }
  }

  bool is_null() const { return data_.index() == 0; }
  bool is_numeric() const {
    return type() == ValueType::kLong || type() == ValueType::kDouble;
  }

  int64_t AsLong() const { return std::get<int64_t>(data_); }
  double AsDoubleExact() const { return std::get<double>(data_); }
  const std::string& AsString() const { return std::get<std::string>(data_); }

  /// Numeric coercion: long/double -> double. Returns 0.0 for non-numeric.
  double ToDouble() const;

  /// Rendering for SQL literals, cache keys, and display.
  std::string ToString() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }

  size_t Hash() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> data_;
};

struct ValueHasher {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

/// Parses a CSV cell into the most specific value type: empty -> NULL,
/// integral -> long, numeric -> double, else string. Commas in numbers
/// ("1,200") and leading/trailing space are tolerated.
Value ParseCell(const std::string& raw);

}  // namespace db
}  // namespace aggchecker
