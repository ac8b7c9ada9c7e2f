// Small string utilities used across modules (no locale dependence).
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace entk {

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Joins items with the given separator.
std::string join(const std::vector<std::string>& items,
                 std::string_view separator);

/// Strips leading/trailing ASCII whitespace.
std::string trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Formats seconds as a compact human string, e.g. "1.50 s", "12.3 ms".
std::string format_seconds(double seconds);

/// Formats a double with fixed precision: the first 63 bytes of
/// printf's "%.*f" text (the historical 64-byte buffer).
std::string format_double(double value, int precision);

/// Formats a double exactly as printf's "%f" (and std::to_string) do:
/// six fraction digits, never truncated.
std::string format_fixed(double value);

}  // namespace entk
