#include "util/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

namespace ecgrid::util {

const char* toString(JsonKind kind) {
  switch (kind) {
    case JsonKind::kNull:
      return "null";
    case JsonKind::kBool:
      return "bool";
    case JsonKind::kNumber:
      return "number";
    case JsonKind::kString:
      return "string";
    case JsonKind::kArray:
      return "array";
    case JsonKind::kObject:
      return "object";
  }
  return "?";
}

JsonValue::JsonValue(JsonArray a)
    : kind_(JsonKind::kArray),
      array_(std::make_shared<const JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : kind_(JsonKind::kObject),
      object_(std::make_shared<const JsonObject>(std::move(o))) {}

namespace {

[[noreturn]] void kindMismatch(JsonKind want, JsonKind got) {
  throw std::invalid_argument(std::string("JSON value is ") + toString(got) +
                              ", expected " + toString(want));
}

}  // namespace

bool JsonValue::asBool() const {
  if (kind_ != JsonKind::kBool) kindMismatch(JsonKind::kBool, kind_);
  return bool_;
}

double JsonValue::asNumber() const {
  if (kind_ != JsonKind::kNumber) kindMismatch(JsonKind::kNumber, kind_);
  return number_;
}

const std::string& JsonValue::asString() const {
  if (kind_ != JsonKind::kString) kindMismatch(JsonKind::kString, kind_);
  return string_;
}

const JsonArray& JsonValue::asArray() const {
  if (kind_ != JsonKind::kArray) kindMismatch(JsonKind::kArray, kind_);
  return *array_;
}

const JsonObject& JsonValue::asObject() const {
  if (kind_ != JsonKind::kObject) kindMismatch(JsonKind::kObject, kind_);
  return *object_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != JsonKind::kObject) return nullptr;
  auto it = object_->find(key);
  return it == object_->end() ? nullptr : &it->second;
}

namespace {

/// Appends `s`, escaped for a JSON string literal, to `out`.
void appendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace

std::string jsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  appendEscaped(out, s);
  return out;
}

std::string JsonValue::dump() const {
  std::string out;
  dumpTo(out);
  return out;
}

void JsonValue::dumpTo(std::string& out) const {
  switch (kind_) {
    case JsonKind::kNull:
      out += "null";
      return;
    case JsonKind::kBool:
      out += bool_ ? "true" : "false";
      return;
    case JsonKind::kNumber: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.17g", number_);
      out += buf;
      return;
    }
    case JsonKind::kString:
      out += '"';
      appendEscaped(out, string_);
      out += '"';
      return;
    case JsonKind::kArray:
      out += '[';
      for (std::size_t i = 0; i < array_->size(); ++i) {
        if (i > 0) out += ',';
        (*array_)[i].dumpTo(out);
      }
      out += ']';
      return;
    case JsonKind::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : *object_) {
        if (!first) out += ',';
        first = false;
        out += '"';
        appendEscaped(out, key);
        out += "\":";
        value.dumpTo(out);
      }
      out += '}';
      return;
    }
  }
  out += "null";
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue document() {
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1;
    std::size_t col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "JSON parse error at " << line << ":" << col << " — " << what;
    throw std::invalid_argument(os.str());
  }

  void skipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skipWhitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consumeKeyword(const char* kw) {
    std::size_t len = 0;
    while (kw[len] != '\0') ++len;
    if (text_.compare(pos_, len, kw) != 0) return false;
    pos_ += len;
    return true;
  }

  JsonValue parseValue() {
    switch (peek()) {
      case '{':
        return parseObject();
      case '[':
        return parseArray();
      case '"':
        return JsonValue(parseString());
      case 't':
        if (consumeKeyword("true")) return JsonValue(true);
        fail("invalid keyword (expected 'true')");
      case 'f':
        if (consumeKeyword("false")) return JsonValue(false);
        fail("invalid keyword (expected 'false')");
      case 'n':
        if (consumeKeyword("null")) return JsonValue();
        fail("invalid keyword (expected 'null')");
      default:
        return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{');
    JsonObject object;
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      if (peek() != '"') fail("object key must be a string");
      std::string key = parseString();
      expect(':');
      object[std::move(key)] = parseValue();
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return JsonValue(std::move(object));
      }
      fail("expected ',' or '}' in object");
    }
  }

  JsonValue parseArray() {
    expect('[');
    JsonArray array;
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      array.push_back(parseValue());
      char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return JsonValue(std::move(array));
      }
      fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid hex digit in \\u escape");
            }
          }
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate-pair escapes are not supported");
          }
          // UTF-8 encode the BMP code point.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape sequence");
      }
    }
  }

  JsonValue parseNumber() {
    skipWhitespace();
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) fail("invalid value");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    double value = std::strtod(token.c_str(), &end);
    if (end == nullptr || *end != '\0' || !std::isfinite(value)) {
      pos_ = start;
      fail("malformed number '" + token + "'");
    }
    return JsonValue(value);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue parseJson(const std::string& text) {
  return Parser(text).document();
}

}  // namespace ecgrid::util
