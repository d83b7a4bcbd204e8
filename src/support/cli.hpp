#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace treeplace {

/// Thrown by the numeric getters when an option value is malformed or out of
/// range. The message names the option and the offending text so a service
/// operator sees "--watchdog=4x: not a valid number", not a bare stod throw.
class OptionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Tiny command-line/environment option reader used by examples and benches.
/// Accepts --name=value and --flag forms; anything else is a positional.
/// Environment variables (upper-cased, prefixed) override defaults but lose
/// to explicit command-line options.
class Options {
 public:
  /// envPrefix example: "TREEPLACE_" makes --trees readable from TREEPLACE_TREES.
  Options(int argc, const char* const* argv, std::string envPrefix = "TREEPLACE_");

  bool hasFlag(const std::string& name) const;
  std::optional<std::string> get(const std::string& name) const;
  std::string getOr(const std::string& name, const std::string& fallback) const;
  /// Strict numeric getters: the whole value must parse (trailing garbage like
  /// "4x" is rejected, as are values outside the target type's range) or an
  /// OptionError is thrown. Absent options return the fallback untouched.
  std::int64_t getIntOr(const std::string& name, std::int64_t fallback) const;
  double getDoubleOr(const std::string& name, double fallback) const;
  /// Strict comma-separated integer list ("200,400,800"): every item must
  /// parse as getIntOr's would, and empty items are rejected.
  std::vector<std::int64_t> getIntListOr(const std::string& name,
                                         std::vector<std::int64_t> fallback) const;

  const std::vector<std::string>& positionals() const { return positionals_; }

 private:
  static std::int64_t parseInt(const std::string& name, const std::string& text);
  static double parseDouble(const std::string& name, const std::string& text);
  std::optional<std::string> fromEnv(const std::string& name) const;

  std::map<std::string, std::string> values_;
  std::vector<std::string> positionals_;
  std::string envPrefix_;
};

}  // namespace treeplace
