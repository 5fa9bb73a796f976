#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "util/error.hpp"

namespace ecgrid::util {

namespace {

bool isKnown(const std::vector<std::string>& known, const std::string& name) {
  return std::find(known.begin(), known.end(), name) != known.end();
}

}  // namespace

Flags::Flags(int argc, const char* const* argv,
             std::vector<std::string> known) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      helpRequested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string name;
    std::string value;
    auto eq = body.find('=');
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // "--name value" form: consume next token unless it is another flag.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    if (!isKnown(known, name)) {
      throw std::invalid_argument("unknown flag: --" + name);
    }
    values_[name] = value;
  }
}

Flags Flags::parseOrExit(int argc, const char* const* argv,
                         std::vector<std::string> known,
                         const std::string& summary) {
  try {
    Flags flags(argc, argv, known);
    flags.usage_ = usage(summary, known);
    if (flags.helpRequested()) {
      std::cout << flags.usage_;
      std::exit(0);
    }
    return flags;
  } catch (const std::invalid_argument& e) {
    std::cerr << (argc > 0 ? argv[0] : "error") << ": " << e.what() << "\n"
              << usage(summary, known);
    std::exit(2);
  }
}

std::string Flags::usage(const std::string& summary,
                         const std::vector<std::string>& known) {
  std::string text = summary + "\n\nflags:\n";
  for (const std::string& name : known) text += "  --" + name + "\n";
  text += "  --help, -h\n";
  return text;
}

bool Flags::has(const std::string& name) const {
  return values_.count(name) > 0;
}

std::string Flags::getString(const std::string& name,
                             const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

int Flags::exitCodeFor(const char* argv0, const std::exception& error) {
  std::cerr << (argv0 != nullptr ? argv0 : "error") << ": " << error.what()
            << "\n";
  if (const auto* flagError = dynamic_cast<const FlagError*>(&error)) {
    std::cerr << flagError->usage();
  }
  return 2;
}

void Flags::reject(const std::string& name, const std::string& value,
                   const std::string& expected) const {
  throw FlagError("--" + name + ": expected " + expected + ", got '" +
                      value + "'",
                  usage_);
}

namespace {

/// Parses all of `text` as a T; false on junk, trailing characters or
/// overflow.
template <class T>
bool parseWhole(const std::string& text, T& out) {
  const char* const end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, out);
  return !text.empty() && error == std::errc() && stop == end;
}

}  // namespace

std::optional<int> parseInt(const std::string& text) {
  int value = 0;
  if (!parseWhole(text, value)) return std::nullopt;
  return value;
}

std::optional<double> parseNumber(const std::string& text) {
  double value = 0.0;
  if (!parseWhole(text, value) || !std::isfinite(value)) return std::nullopt;
  return value;
}

double Flags::getDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<double> value = parseNumber(it->second);
  if (!value) reject(name, it->second, "a number");
  return *value;
}

int Flags::getInt(const std::string& name, int fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::optional<int> value = parseInt(it->second);
  if (!value) reject(name, it->second, "an integer");
  return *value;
}

std::uint64_t Flags::getUnsigned(const std::string& name,
                                 std::uint64_t fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::uint64_t value = 0;
  if (!parseWhole(it->second, value)) {
    reject(name, it->second, "a non-negative integer");
  }
  return value;
}

bool Flags::getBool(const std::string& name, bool fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "true" || value == "1" || value == "yes") return true;
  if (value == "false" || value == "0" || value == "no") return false;
  reject(name, value, "true/false, 1/0 or yes/no");
}

}  // namespace ecgrid::util
