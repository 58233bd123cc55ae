#ifndef SKETCHML_COMMON_FLAGS_H_
#define SKETCHML_COMMON_FLAGS_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace sketchml::common {

/// Minimal command-line flag parser for the tools and examples.
///
/// Accepts `--name=value` and bare `--name` (boolean true). Everything not
/// starting with `--` is a positional argument, including a token that
/// follows a bare flag.
class FlagParser {
 public:
  /// Parses argv; fails on malformed flags (e.g. `--=x`).
  static Result<FlagParser> Parse(int argc, const char* const* argv);

  bool Has(const std::string& name) const {
    return values_.count(name) != 0;
  }

  /// Typed getters with defaults. Numeric getters fail the process via
  /// CHECK on non-numeric input only when the flag is present; use
  /// `GetIntOr` variants below for recoverable handling.
  std::string GetString(const std::string& name,
                        const std::string& default_value) const;
  Result<int64_t> GetInt(const std::string& name,
                         int64_t default_value) const;
  Result<double> GetDouble(const std::string& name,
                           double default_value) const;
  bool GetBool(const std::string& name, bool default_value) const;

  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags seen but never read by any getter — typo detection for tools.
  std::vector<std::string> UnusedFlags() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> read_;
  std::vector<std::string> positional_;
};

/// Reads the conventional `--threads` flag shared by the tools and bench
/// harnesses: absent or 0 means one thread per hardware core, N >= 1 is
/// used as-is, and anything else is an InvalidArgument. The resolved
/// count feeds `dist::TrainerConfig::num_threads` (results are
/// bit-identical at any value; see DESIGN.md "Threading model").
Result<int> GetThreadsFlag(const FlagParser& flags);

}  // namespace sketchml::common

#endif  // SKETCHML_COMMON_FLAGS_H_
