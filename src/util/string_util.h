#ifndef RDFQL_UTIL_STRING_UTIL_H_
#define RDFQL_UTIL_STRING_UTIL_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace rdfql {

/// Splits on a single character, omitting empty pieces.
std::vector<std::string> SplitNonEmpty(std::string_view text, char sep);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view text);

/// Joins `pieces` with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// True if `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// `value` in the last of `units` (each 1000x the one before) that leaves
/// at least 10,000 of it, or the final unit: "850ns", "12.3us", "12.3KB".
/// The first unit prints as an integer, the rest with one decimal.
std::string ScaledString(uint64_t value,
                         std::initializer_list<const char*> units);

/// A byte count as "850B", "12.3KB" or "4.5MB" (decimal units).
inline std::string BytesString(uint64_t bytes) {
  return ScaledString(bytes, {"B", "KB", "MB"});
}

}  // namespace rdfql

#endif  // RDFQL_UTIL_STRING_UTIL_H_
