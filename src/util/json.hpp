// Minimal JSON value + recursive-descent parser (stdlib only).
//
// The campaign layer (src/campaign) consumes declarative sweep specs and
// re-reads its own JSONL results file, so the repo needs to *parse* JSON,
// not just emit it the way bench_support does. The subset implemented is
// exactly RFC 8259 minus surrogate-pair escapes: objects, arrays, strings
// (\" \\ \/ \b \f \n \r \t and \uXXXX for the BMP), numbers (parsed as
// double — the spec's numbers are seeds, rates, and counts, all exactly
// representable), true/false/null. Objects preserve no duplicate keys
// (last write wins) and are stored in std::map, so iteration order is
// sorted and deterministic — the same discipline the rest of the repo
// follows for anything that feeds output files.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "util/ownership.hpp"

namespace ecgrid::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

enum class JsonKind : std::uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

const char* toString(JsonKind kind);

/// One parsed JSON value. Value-semantic; containers are heap-boxed so
/// the type stays complete for std::map/std::vector.
class JsonValue {
 public:
  JsonValue() : kind_(JsonKind::kNull) {}
  JsonValue(bool b) : kind_(JsonKind::kBool), bool_(b) {}          // NOLINT
  JsonValue(double n) : kind_(JsonKind::kNumber), number_(n) {}    // NOLINT
  JsonValue(int n) : JsonValue(static_cast<double>(n)) {}          // NOLINT
  JsonValue(std::string s)                                         // NOLINT
      : kind_(JsonKind::kString), string_(std::move(s)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}          // NOLINT
  JsonValue(JsonArray a);                                          // NOLINT
  JsonValue(JsonObject o);                                         // NOLINT

  [[nodiscard]] JsonKind kind() const { return kind_; }
  [[nodiscard]] bool isNull() const { return kind_ == JsonKind::kNull; }

  /// Typed accessors throw std::invalid_argument on a kind mismatch with
  /// a message naming both kinds, so spec errors surface readably.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asNumber() const;
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const JsonArray& asArray() const;
  [[nodiscard]] const JsonObject& asObject() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const JsonValue* find(const std::string& key) const;

  /// Compact canonical serialization: sorted object keys (std::map
  /// order), no whitespace, numbers via %.17g — fingerprint-stable.
  [[nodiscard]] std::string dump() const;

 private:
  /// Appends dump()'s text to `out`, recursing in place.
  void dumpTo(std::string& out) const;

  JsonKind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<const JsonArray> array_;
  std::shared_ptr<const JsonObject> object_;
};

/// Parse one JSON document (throws std::invalid_argument with a
/// line:column locus on malformed input; trailing garbage is an error).
[[nodiscard]] JsonValue parseJson(const std::string& text);

/// Escape `s` for embedding inside a JSON string literal (no quotes).
[[nodiscard]] std::string jsonEscape(const std::string& s);

}  // namespace ecgrid::util
