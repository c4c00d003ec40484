#include "util/rounding.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace aggchecker {
namespace rounding {

namespace {
constexpr double kRelEps = 1e-9;

bool NearlyEqual(double a, double b) {
  double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= kRelEps * scale;
}
}  // namespace

double RoundToSignificant(double value, int digits) {
  if (value == 0.0 || !std::isfinite(value)) return value;
  if (digits < 1) digits = 1;
  double magnitude = std::floor(std::log10(std::fabs(value)));
  double factor = std::pow(10.0, digits - 1 - magnitude);
  return std::round(value * factor) / factor;
}

int SignificantDigitsOf(double value) {
  if (value == 0.0 || !std::isfinite(value)) return 1;
  // Render shortest round-trip-ish representation and count digits.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  int count = 0;
  bool seen_nonzero = false;
  int trailing_zeros_int = 0;
  bool in_fraction = false;
  for (const char* p = buf; *p != '\0'; ++p) {
    char c = *p;
    if (c == 'e' || c == 'E') break;  // exponent does not add digits
    if (c == '.') {
      in_fraction = true;
      continue;
    }
    if (!std::isdigit(static_cast<unsigned char>(c))) continue;
    if (c == '0') {
      if (!seen_nonzero) continue;  // leading zeros
      ++count;
      if (!in_fraction) ++trailing_zeros_int;
    } else {
      seen_nonzero = true;
      ++count;
      if (!in_fraction) trailing_zeros_int = 0;
    }
  }
  // Integer trailing zeros are treated as placeholders (1300 -> 2 digits).
  if (!in_fraction) count -= trailing_zeros_int;
  return count > 0 ? count : 1;
}

bool Matches(double query_result, double claimed, RoundingMode mode,
             double tolerance) {
  if (!std::isfinite(query_result) || !std::isfinite(claimed)) return false;
  switch (mode) {
    case RoundingMode::kSignificantDigits:
      return RoundsTo(query_result, claimed);
    case RoundingMode::kExact:
      return NearlyEqual(query_result, claimed);
    case RoundingMode::kRelativeTolerance: {
      double scale = std::max(std::fabs(query_result), 1e-12);
      return std::fabs(query_result - claimed) <= tolerance * scale;
    }
  }
  return false;
}

bool RoundsTo(double query_result, double claimed) {
  if (!std::isfinite(query_result) || !std::isfinite(claimed)) return false;
  if (NearlyEqual(query_result, claimed)) return true;
  // Values of opposite sign never round to each other.
  if ((query_result < 0) != (claimed < 0) && claimed != 0.0) return false;

  // The author's precision: how many significant digits the claim carries.
  int claim_digits = SignificantDigitsOf(claimed);
  double rounded = RoundToSignificant(query_result, claim_digits);
  if (NearlyEqual(rounded, claimed)) return true;

  // Also allow rounding to integer when the claim is integral (common in
  // prose: "about 64 candidates" for 63.7).
  if (std::fabs(claimed - std::round(claimed)) < kRelEps) {
    if (NearlyEqual(std::round(query_result), claimed)) return true;
  }
  return false;
}

}  // namespace rounding
}  // namespace aggchecker
