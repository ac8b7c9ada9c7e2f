#include "common/config.hpp"

#include <cstdlib>

#include "common/strings.hpp"

namespace entk {

Result<Config> Config::from_pairs(const std::vector<std::string>& pairs) {
  Config config;
  for (const auto& pair : pairs) {
    const auto eq = pair.find('=');
    if (eq == std::string::npos || eq == 0) {
      return make_error(Errc::kInvalidArgument,
                        "expected key=value, got '" + pair + "'");
    }
    config.set(trim(pair.substr(0, eq)), trim(pair.substr(eq + 1)));
  }
  return config;
}

void Config::set(const std::string& key, std::string value) {
  values_[key] = std::move(value);
}
void Config::set(const std::string& key, const char* value) {
  values_[key] = value;
}
void Config::set(const std::string& key, double value) {
  values_[key] = format_double(value, 17);
}
void Config::set(const std::string& key, std::int64_t value) {
  values_[key] = std::to_string(value);
}
void Config::set(const std::string& key, int value) {
  values_[key] = std::to_string(value);
}
void Config::set(const std::string& key, bool value) {
  values_[key] = value ? "true" : "false";
}

bool Config::contains(const std::string& key) const {
  return values_.count(key) != 0;
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

namespace {

Status not_a(const char* kind, const std::string& key,
             const std::string& text) {
  return make_error(Errc::kInvalidArgument, "config key '" + key +
                                                "' is not " + kind + ": " +
                                                text);
}

// The stored text is parsed in place: strtod/strtoll decide what is a
// number, so the accepted spellings stay those of the C library.
Result<double> parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') {
    return not_a("a number", key, text);
  }
  return value;
}

Result<std::int64_t> parse_int(const std::string& key,
                               const std::string& text) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') {
    return not_a("an integer", key, text);
  }
  return static_cast<std::int64_t>(value);
}

Result<bool> parse_bool(const std::string& key, const std::string& text) {
  if (text == "true" || text == "1" || text == "yes") return true;
  if (text == "false" || text == "0" || text == "no") return false;
  return not_a("a bool", key, text);
}

Status missing(const std::string& key) {
  return make_error(Errc::kNotFound, "config key '" + key + "' missing");
}

}  // namespace

Result<std::string> Config::get_string(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return missing(key);
  return it->second;
}

Result<double> Config::get_double(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return missing(key);
  return parse_double(key, it->second);
}

Result<std::int64_t> Config::get_int(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return missing(key);
  return parse_int(key, it->second);
}

Result<bool> Config::get_bool(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return missing(key);
  return parse_bool(key, it->second);
}

std::string Config::get_string_or(const std::string& key,
                                  const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

Result<double> Config::get_double_or(const std::string& key,
                                     double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_double(key, it->second);
}

Result<std::int64_t> Config::get_int_or(const std::string& key,
                                        std::int64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_int(key, it->second);
}

Result<bool> Config::get_bool_or(const std::string& key,
                                 bool fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return parse_bool(key, it->second);
}

Config Config::merged_with(const Config& other) const {
  Config merged = *this;
  for (const auto& [key, value] : other.values_) merged.values_[key] = value;
  return merged;
}

}  // namespace entk
