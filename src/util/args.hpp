// Small command-line argument parser for the examples and bench harnesses.
//
// Supports "--name value" and "--name=value" options plus "--flag" booleans.
// Unknown options raise an error listing the accepted names, which keeps the
// example binaries self-documenting.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ooctree::util {

/// Parsed command line: options by name plus positional arguments.
class Args {
 public:
  /// Parses argv. Every token starting with "--" is an option; if the next
  /// token does not start with "--" it is consumed as the option's value,
  /// otherwise the option is a boolean flag. `accepted` names every option
  /// the program reads (without the "--"); any other name throws
  /// std::runtime_error listing them.
  static Args parse(int argc, const char* const* argv, const std::vector<std::string>& accepted);

  [[nodiscard]] bool has(const std::string& name) const { return options_.count(name) > 0; }

  /// String option with a default.
  [[nodiscard]] std::string get(const std::string& name, const std::string& fallback) const;

  /// Integer option with a default; throws std::runtime_error on bad input.
  [[nodiscard]] std::int64_t get_int(const std::string& name, std::int64_t fallback) const;

  /// Floating-point option with a default.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }
  [[nodiscard]] const std::string& program() const { return program_; }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

}  // namespace ooctree::util
