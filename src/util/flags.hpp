// Tiny command-line flag parser used by the bench and example binaries.
//
// Supports "--name=value", "--name value" and boolean "--name". Unknown
// flags raise std::invalid_argument so experiment scripts fail loudly
// instead of silently running the wrong configuration. "--help" and "-h"
// are always accepted; parseOrExit turns them, and any parse error, into
// a usage message and an exit code for command-line binaries.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ecgrid::util {

class Flags {
 public:
  /// Parses argv. `known` lists every accepted flag name (without "--").
  Flags(int argc, const char* const* argv, std::vector<std::string> known);

  /// Parses argv for a binary's main(). On "--help"/"-h" prints usage()
  /// to stdout and exits 0; on an unknown or malformed flag prints the
  /// error and usage() to stderr and exits 2.
  static Flags parseOrExit(int argc, const char* const* argv,
                           std::vector<std::string> known,
                           const std::string& summary);

  /// `summary` followed by the accepted flags, one per line.
  [[nodiscard]] static std::string usage(const std::string& summary,
                                         const std::vector<std::string>& known);

  /// True when "--help" or "-h" was given.
  [[nodiscard]] bool helpRequested() const { return helpRequested_; }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string getString(const std::string& name,
                                      const std::string& fallback) const;
  [[nodiscard]] double getDouble(const std::string& name,
                                 double fallback) const;
  [[nodiscard]] int getInt(const std::string& name, int fallback) const;
  [[nodiscard]] bool getBool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool helpRequested_ = false;
};

}  // namespace ecgrid::util
