#include "db/value.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace aggchecker {
namespace db {

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kLong:
      return "LONG";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
  }
  return "?";
}

double Value::ToDouble() const {
  switch (type()) {
    case ValueType::kLong:
      return static_cast<double>(std::get<int64_t>(data_));
    case ValueType::kDouble:
      return std::get<double>(data_);
    default:
      return 0.0;
  }
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kLong:
      return std::to_string(std::get<int64_t>(data_));
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.10g", std::get<double>(data_));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(data_);
  }
  return "";
}

bool Value::operator==(const Value& other) const {
  if (is_numeric() && other.is_numeric()) {
    return ToDouble() == other.ToDouble();
  }
  return data_ == other.data_;
}

size_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kLong:
      // Hash longs as their double value so 3 and 3.0 collide (they compare
      // equal).
      return std::hash<double>{}(static_cast<double>(AsLong()));
    case ValueType::kDouble:
      return std::hash<double>{}(AsDoubleExact());
    case ValueType::kString:
      return std::hash<std::string>{}(AsString());
  }
  return 0;
}

Value ParseCell(const std::string& raw) {
  std::string s = strings::Trim(raw);
  if (s.empty() || s == "NA" || s == "N/A" || s == "null" || s == "NULL") {
    return Value::Null();
  }
  // Strip thousands separators for numeric detection.
  std::string numeric = s;
  if (numeric.find(',') != std::string::npos) {
    std::string stripped = strings::ReplaceAll(numeric, ",", "");
    // Only treat as numeric candidate if the comma-stripped form parses.
    numeric = stripped;
  }
  // Try integer.
  {
    char* end = nullptr;
    errno = 0;
    long long v = std::strtoll(numeric.c_str(), &end, 10);
    if (errno == 0 && end != numeric.c_str() && *end == '\0') {
      return Value(static_cast<int64_t>(v));
    }
  }
  // Try double.
  {
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(numeric.c_str(), &end);
    if (errno == 0 && end != numeric.c_str() && *end == '\0' &&
        std::isfinite(v)) {
      return Value(v);
    }
  }
  return Value(s);
}

}  // namespace db
}  // namespace aggchecker
