// Typed key-value configuration bag.
//
// Kernel plugins, machine profiles and patterns all carry small sets of
// named parameters; Config gives them one uniform, validated carrier
// (the C++ analogue of the keyword-argument dictionaries in the
// original Python toolkit).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"

namespace entk {

class Config {
 public:
  Config() = default;

  /// Parses "key=value" pairs; later pairs override earlier ones.
  static Result<Config> from_pairs(const std::vector<std::string>& pairs);

  void set(const std::string& key, std::string value);
  void set(const std::string& key, const char* value);
  void set(const std::string& key, double value);
  void set(const std::string& key, std::int64_t value);
  void set(const std::string& key, int value);
  void set(const std::string& key, bool value);

  bool contains(const std::string& key) const;
  std::vector<std::string> keys() const;
  std::size_t size() const { return values_.size(); }

  /// Typed getters: error if missing or unparsable.
  Result<std::string> get_string(const std::string& key) const;
  Result<double> get_double(const std::string& key) const;
  Result<std::int64_t> get_int(const std::string& key) const;
  Result<bool> get_bool(const std::string& key) const;

  /// Defaulted getters: fall back if the key is missing, still error on
  /// an unparsable value (a typo should not silently become a default).
  /// Values are often user text, so the error is returned, never thrown.
  std::string get_string_or(const std::string& key,
                            const std::string& fallback) const;
  Result<double> get_double_or(const std::string& key,
                               double fallback) const;
  Result<std::int64_t> get_int_or(const std::string& key,
                                  std::int64_t fallback) const;
  Result<bool> get_bool_or(const std::string& key, bool fallback) const;

  /// Overlays `other` on top of this config (other wins on conflict).
  Config merged_with(const Config& other) const;

  bool operator==(const Config& other) const = default;

 private:
  std::map<std::string, std::string> values_;
};

}  // namespace entk
