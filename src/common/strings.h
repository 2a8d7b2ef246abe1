// Small string helpers shared across modules.

#ifndef SRC_COMMON_STRINGS_H_
#define SRC_COMMON_STRINGS_H_

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace philly {

// Splits on `sep`; keeps empty fields ("a,,b" -> {"a", "", "b"}).
std::vector<std::string_view> Split(std::string_view s, char sep);

// Trims ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);
bool Contains(std::string_view haystack, std::string_view needle);

// Case-insensitive substring search (ASCII).
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

// Parses all of `text` as one decimal number: no whitespace, no '+', a '-'
// only for signed and floating types, nothing trailing, no overflow. Leaves
// *out untouched on failure.
template <typename Number>
bool ParseExact(std::string_view text, Number* out) {
  Number value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    return false;
  }
  *out = value;
  return true;
}

// Formats a double with `digits` decimal places ("%.Nf").
std::string FormatDouble(double v, int digits = 2);

// Formats a fraction in [0,1] as a percentage string, e.g. 0.123 -> "12.3%".
std::string FormatPercent(double fraction, int digits = 1);

// Escapes `s` for use inside a double-quoted JSON string (no surrounding
// quotes added).
std::string JsonEscape(std::string_view s);

}  // namespace philly

#endif  // SRC_COMMON_STRINGS_H_
