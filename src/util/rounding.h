#pragma once

namespace aggchecker {
namespace rounding {

/// \brief Rounds `value` to `digits` significant digits.
///
/// Example: RoundToSignificant(0.1337, 2) == 0.13,
///          RoundToSignificant(1337.0, 2) == 1300.0.
/// `digits` must be >= 1; values of 0 round to 0 at any precision.
double RoundToSignificant(double value, int digits);

/// \brief Definition 1's admissible-rounding check.
///
/// Returns true if there exists an admissible rounding function rho (rounding
/// to any number of significant digits, 1..15) such that
/// rho(query_result) == claimed. Exact equality (within a tiny epsilon that
/// absorbs floating-point noise) also counts.
///
/// The claimed value is assumed to be exactly what the text states; the
/// number of significant digits the *author* used is inferred from the
/// claimed value itself: we additionally require that rounding the query
/// result to the claimed value's own precision reproduces the claim. This
/// mirrors how the paper treats "13%" as wrong when the true value is 13.6
/// (rounds to 14) but "13.6%" as right.
bool RoundsTo(double query_result, double claimed);

/// \brief Number of significant digits in the decimal rendering of `value`.
///
/// "1300" -> 2 (trailing zeros before the decimal point are treated as
/// placeholders), "13.60" -> 4, "0.005" -> 1. Used to infer the author's
/// precision from the claimed literal. Returns at least 1.
int SignificantDigitsOf(double value);

/// Admissible rounding functions rho (Definition 1 notes the approach works
/// with different choices; the ablation bench compares them).
enum class RoundingMode {
  kSignificantDigits = 0,  ///< the paper's default (RoundsTo)
  kExact,                  ///< strict equality (tiny epsilon only)
  kRelativeTolerance,      ///< |result - claimed| <= tol * |result|
};

/// \brief Checks a query result against a claimed value under `mode`.
/// `tolerance` only applies to kRelativeTolerance (e.g. 0.05 = 5%).
bool Matches(double query_result, double claimed, RoundingMode mode,
             double tolerance = 0.05);

}  // namespace rounding
}  // namespace aggchecker
