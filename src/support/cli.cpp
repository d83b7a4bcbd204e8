#include "support/cli.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "support/require.hpp"

namespace treeplace {

Options::Options(int argc, const char* const* argv, std::string envPrefix)
    : envPrefix_(std::move(envPrefix)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positionals_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const auto eq = body.find('=');
    // Move-assign named locals into the map slots: assigning a char* or a
    // substr temporary into a slot indexed by a related string trips gcc
    // 12's -Wrestrict false positive under -O2.
    if (eq == std::string::npos) {
      std::string value = "1";
      values_[body] = std::move(value);
    } else {
      std::string key = body.substr(0, eq);
      std::string value = body.substr(eq + 1);
      values_[std::move(key)] = std::move(value);
    }
  }
}

bool Options::hasFlag(const std::string& name) const {
  const auto v = get(name);
  return v.has_value() && *v != "0" && *v != "false";
}

std::optional<std::string> Options::get(const std::string& name) const {
  if (const auto it = values_.find(name); it != values_.end()) return it->second;
  return fromEnv(name);
}

std::string Options::getOr(const std::string& name, const std::string& fallback) const {
  return get(name).value_or(fallback);
}

std::int64_t Options::getIntOr(const std::string& name, std::int64_t fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseInt(name, *v);
}

double Options::getDoubleOr(const std::string& name, double fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  return parseDouble(name, *v);
}

std::vector<std::int64_t> Options::getIntListOr(
    const std::string& name, std::vector<std::int64_t> fallback) const {
  const auto v = get(name);
  if (!v) return fallback;
  std::vector<std::int64_t> values;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = std::min(v->find(',', begin), v->size());
    values.push_back(parseInt(name, v->substr(begin, comma - begin)));
    if (comma == v->size()) return values;
    begin = comma + 1;
  }
}

std::int64_t Options::parseInt(const std::string& name, const std::string& text) {
  std::int64_t value = 0;
  const char* first = text.data();
  const char* last = first + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec == std::errc::result_out_of_range)
    throw OptionError("option --" + name + "=" + text + ": integer out of range");
  if (ec != std::errc{} || ptr != last || text.empty())
    throw OptionError("option --" + name + "=" + text + ": not a valid integer");
  return value;
}

double Options::parseDouble(const std::string& name, const std::string& text) {
  // strtod, not from_chars<double>: libstdc++ shipped the latter late enough
  // that some supported toolchains lack it. End-pointer + errno give the same
  // full-consumption and range guarantees.
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size())
    throw OptionError("option --" + name + "=" + text + ": not a valid number");
  if (errno == ERANGE || !std::isfinite(value))
    throw OptionError("option --" + name + "=" + text + ": number out of range");
  return value;
}

std::optional<std::string> Options::fromEnv(const std::string& name) const {
  std::string key = envPrefix_;
  for (char c : name) {
    key += (c == '-') ? '_' : static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  if (const char* value = std::getenv(key.c_str())) return std::string(value);
  return std::nullopt;
}

}  // namespace treeplace
