// Small text-formatting and parsing helpers (libstdc++ 12 does not ship
// std::format).
#pragma once

#include <charconv>
#include <cstdarg>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace drsm {

/// printf-style formatting into a std::string.
std::string strfmt(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders a simple aligned ASCII table: header row plus data rows.  Used by
/// the benchmark harness to print paper-style tables.
std::string render_table(const std::vector<std::string>& header,
                         const std::vector<std::vector<std::string>>& rows);

/// `token` as a whole unsigned decimal number that fits T: no sign, no
/// whitespace, no trailing characters, no wrap-around; nullopt otherwise.
template <typename T>
std::optional<T> parse_number(std::string_view token) {
  static_assert(std::is_unsigned_v<T>, "parse_number reads unsigned values");
  T value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace drsm
