#include "common/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace entk {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == delim) {
      fields.emplace_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

std::string join(const std::vector<std::string>& items,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) out += separator;
    out += items[i];
  }
  return out;
}

std::string trim(std::string_view text) {
  std::size_t begin = 0;
  std::size_t end = text.size();
  while (begin < end &&
         std::isspace(static_cast<unsigned char>(text[begin]))) {
    ++begin;
  }
  while (end > begin &&
         std::isspace(static_cast<unsigned char>(text[end - 1]))) {
    --end;
  }
  return std::string(text.substr(begin, end - begin));
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

namespace {

// A double's exact binary value has at most 1074 fraction digits, so a
// higher precision only appends zeros; the longest "%.*f" text is a
// sign, 309 integer digits, the point and those 1074 digits.
constexpr int kMaxFractionDigits = 1074;
constexpr std::size_t kMaxFixedChars = 1 + 309 + 1 + kMaxFractionDigits;

/// Writes printf's "%.*f" text for `value` (negative precision means 6,
/// as in printf) without the locale and format-string parsing, and
/// returns its length. Precision is capped at kMaxFractionDigits:
/// callers keep at most the first 63 bytes of longer texts.
std::size_t write_fixed(double value, int precision,
                        char (&out)[kMaxFixedChars]) {
  if (precision < 0) precision = 6;
  if (precision > kMaxFractionDigits) precision = kMaxFractionDigits;
  const auto written =
      std::to_chars(out, out + kMaxFixedChars, value,
                    std::chars_format::fixed, precision);
  return static_cast<std::size_t>(written.ptr - out);
}

}  // namespace

std::string format_double(double value, int precision) {
  char buffer[kMaxFixedChars];
  const std::size_t length = write_fixed(value, precision, buffer);
  return std::string(buffer, std::min<std::size_t>(length, 63));
}

std::string format_fixed(double value) {
  char buffer[kMaxFixedChars];
  return std::string(buffer, write_fixed(value, 6, buffer));
}

std::string format_seconds(double seconds) {
  const double magnitude = std::fabs(seconds);
  char buffer[64];
  if (magnitude >= 3600.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f h", seconds / 3600.0);
  } else if (magnitude >= 60.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f min", seconds / 60.0);
  } else if (magnitude >= 1.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f s", seconds);
  } else if (magnitude >= 1e-3) {
    std::snprintf(buffer, sizeof(buffer), "%.2f ms", seconds * 1e3);
  } else if (magnitude > 0.0) {
    std::snprintf(buffer, sizeof(buffer), "%.2f us", seconds * 1e6);
  } else {
    std::snprintf(buffer, sizeof(buffer), "0 s");
  }
  return buffer;
}

}  // namespace entk
