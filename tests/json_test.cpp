// util/json tests: parsing the RFC 8259 subset, canonical dumping
// (sorted keys, %.17g numbers — the campaign fingerprint contract),
// typed-accessor errors, and the parser's line:column error loci.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "util/json.hpp"

namespace ecgrid {
namespace {

using util::JsonArray;
using util::JsonObject;
using util::JsonValue;
using util::parseJson;

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_TRUE(parseJson("true").asBool());
  EXPECT_FALSE(parseJson("false").asBool());
  EXPECT_DOUBLE_EQ(parseJson("42").asNumber(), 42.0);
  EXPECT_DOUBLE_EQ(parseJson("-2.5e3").asNumber(), -2500.0);
  EXPECT_EQ(parseJson("\"hi\"").asString(), "hi");
}

TEST(JsonParse, NestedContainers) {
  const JsonValue doc =
      parseJson(R"({"a": [1, 2, {"b": true}], "c": {"d": "x"}})");
  const JsonArray& a = doc.find("a")->asArray();
  ASSERT_EQ(a.size(), 3u);
  EXPECT_DOUBLE_EQ(a[0].asNumber(), 1.0);
  EXPECT_TRUE(a[2].find("b")->asBool());
  EXPECT_EQ(doc.find("c")->find("d")->asString(), "x");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parseJson(R"("a\"b\\c\nd\tA")").asString(), "a\"b\\c\nd\tA");
}

TEST(JsonParse, RejectsMalformedInputWithLocus) {
  try {
    // void-cast: the result is [[nodiscard]] and this call exists to throw.
    static_cast<void>(parseJson("{\"a\": 1,\n  oops}"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("2:"), std::string::npos)
        << e.what();  // error on line 2
  }
}

TEST(JsonParse, RejectsTrailingGarbage) {
  EXPECT_THROW(parseJson("1 2"), std::invalid_argument);
  EXPECT_THROW(parseJson("{} x"), std::invalid_argument);
}

TEST(JsonParse, RejectsSurrogateEscapes) {
  EXPECT_THROW(parseJson(R"("\ud83d")"), std::invalid_argument);
}

TEST(JsonValueApi, AccessorMismatchNamesBothKinds) {
  try {
    static_cast<void>(parseJson("[1]").asObject());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("object"), std::string::npos) << what;
    EXPECT_NE(what.find("array"), std::string::npos) << what;
  }
}

TEST(JsonDump, CanonicalSortedCompact) {
  JsonObject object;
  object["zeta"] = 1;
  object["alpha"] = JsonArray{JsonValue(true), JsonValue("x")};
  object["mid"] = JsonObject{};
  EXPECT_EQ(JsonValue(object).dump(),
            R"({"alpha":[true,"x"],"mid":{},"zeta":1})");
}

TEST(JsonDump, RoundTripsThroughParse) {
  const std::string text =
      R"({"a":[1,2.5,null],"b":{"c":"quote\"backslash\\"},"d":false})";
  const JsonValue doc = parseJson(text);
  EXPECT_EQ(parseJson(doc.dump()).dump(), doc.dump());
}

TEST(JsonDump, NumbersSurviveExactly) {
  // %.17g round-trips every double; fingerprints depend on it.
  const double value = 0.1 + 0.2;
  const std::string dumped = JsonValue(value).dump();
  EXPECT_DOUBLE_EQ(parseJson(dumped).asNumber(), value);
}

TEST(JsonEscape, ControlAndQuoteCharacters) {
  EXPECT_EQ(util::jsonEscape("a\"b\\c\n\x01"), "a\\\"b\\\\c\\n\\u0001");
}

}  // namespace
}  // namespace ecgrid
