// Minimal command-line flag parsing for the CLI tool.
//
// Supports `--key=value`, `--key value`, boolean `--key` / `--no-key`, and
// positional arguments; unknown flags are errors so typos fail loudly, and
// so is a numeric flag's value that is not entirely a number.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/status.hpp"

namespace sdf {

class Flags {
 public:
  /// Declares a flag with a default; call before parse().
  void define(std::string name, std::string default_value,
              std::string help = "");
  void define_bool(std::string name, bool default_value,
                   std::string help = "");
  /// Numeric flags: `parse` rejects a value that is not entirely an integer
  /// (`define_count`: a non-negative one) or a number.
  void define_int(std::string name, std::string default_value,
                  std::string help = "");
  void define_count(std::string name, std::string default_value,
                    std::string help = "");
  void define_double(std::string name, std::string default_value,
                     std::string help = "");

  /// Parses arguments (no argv[0]); positional arguments are collected in
  /// order.  Fails on unknown or malformed flags.
  [[nodiscard]] Status parse(const std::vector<std::string>& args);

  [[nodiscard]] const std::string& get(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;
  /// Numeric value (`strtod`/`strtol` of the flag's text).
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] long get_int(const std::string& name) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// One line per flag: "--name (default: value)  help".
  [[nodiscard]] std::string usage() const;

 private:
  enum class Kind { kString, kBool, kInt, kCount, kDouble };
  struct Definition {
    std::string default_value;
    std::string help;
    Kind kind = Kind::kString;
  };

  /// Whether `value` is entirely a value of `kind`.
  [[nodiscard]] static bool valid(Kind kind, const std::string& value);
  std::map<std::string, Definition> defs_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace sdf
