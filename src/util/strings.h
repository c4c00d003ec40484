#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace aggchecker {

/// \brief String helpers shared across modules.
///
/// All functions are pure and ASCII-oriented; the corpus and data sets in
/// this project are English-language ASCII text.
namespace strings {

/// Returns a lower-cased copy of `s`.
std::string ToLower(std::string_view s);

/// Strips leading and trailing whitespace.
std::string Trim(std::string_view s);

/// Splits `s` on the single character `sep`. Keeps empty pieces.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on any whitespace run. Drops empty pieces.
std::vector<std::string> SplitWhitespace(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// True if `s` consists only of ASCII digits (and is non-empty).
bool IsDigits(std::string_view s);

/// Replaces every occurrence of `from` in `s` by `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace strings
}  // namespace aggchecker
