// Tiny command-line flag parser used by the bench and example binaries.
//
// Supports "--name=value", "--name value" and boolean "--name". Unknown
// flags raise std::invalid_argument so experiment scripts fail loudly
// instead of silently running the wrong configuration; so does a value
// that is not wholly a number (getInt, getDouble) or a boolean (getBool) —
// a FlagError naming the flag. "--help" and "-h" are always accepted;
// parseOrExit turns them, and any parse error, into a usage message and an
// exit code for command-line binaries, and exitCodeFor does the same for
// errors thrown later in main().
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace ecgrid::util {

/// All of `text` as an int, or std::nullopt on junk, trailing characters
/// or overflow — the parse behind Flags::getInt, for other strict inputs
/// such as the bench environment knobs.
[[nodiscard]] std::optional<int> parseInt(const std::string& text);
/// All of `text` as a finite number, or std::nullopt — the parse behind
/// Flags::getDouble.
[[nodiscard]] std::optional<double> parseNumber(const std::string& text);

/// A flag value of the wrong form (`--hosts abc`). Carries the usage text
/// of the Flags that rejected it, so main() can print both.
class FlagError : public std::invalid_argument {
 public:
  FlagError(const std::string& message, std::string usage)
      : std::invalid_argument(message), usage_(std::move(usage)) {}
  [[nodiscard]] const std::string& usage() const { return usage_; }

 private:
  std::string usage_;
};

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

  /// For a binary's main(): prints "<argv0>: <error>" to stderr — plus the
  /// usage text for a FlagError — and returns the exit code, 2.
  static int exitCodeFor(const char* argv0, const std::exception& error);

  /// True when "--help" or "-h" was given.
  [[nodiscard]] bool helpRequested() const { return helpRequested_; }

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string getString(const std::string& name,
                                      const std::string& fallback) const;
  /// The value as a finite number; throws FlagError unless the whole
  /// value is one.
  [[nodiscard]] double getDouble(const std::string& name,
                                 double fallback) const;
  /// The value as an int; throws FlagError unless the whole value is one.
  [[nodiscard]] int getInt(const std::string& name, int fallback) const;
  /// The value as a non-negative 64-bit integer (a seed); throws FlagError
  /// unless the whole value is one, so "-1" is rejected, not wrapped.
  [[nodiscard]] std::uint64_t getUnsigned(const std::string& name,
                                          std::uint64_t fallback) const;
  /// true/1/yes or false/0/no (a bare "--name" is true); throws FlagError
  /// for anything else.
  [[nodiscard]] bool getBool(const std::string& name, bool fallback) const;

  /// Positional (non-flag) arguments in order of appearance.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// Throws the FlagError every malformed value raises: the flag's name,
  /// what it expected, the value given, and the usage text. For values
  /// whose domain only main() knows (`--protocol FOO`).
  [[noreturn]] void reject(const std::string& name, const std::string& value,
                           const std::string& expected) const;

 private:

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  bool helpRequested_ = false;
  std::string usage_;  ///< set by parseOrExit; carried by FlagError
};

}  // namespace ecgrid::util
