#include "net/json.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <string>

namespace fab::net {
namespace {

TEST(NetJsonTest, ParsesScalars) {
  EXPECT_TRUE(ParseJson("null")->is_null());
  EXPECT_TRUE(ParseJson("true")->bool_value());
  EXPECT_FALSE(ParseJson("false")->bool_value());
  EXPECT_DOUBLE_EQ(ParseJson("3.25")->number(), 3.25);
  EXPECT_DOUBLE_EQ(ParseJson("-1e3")->number(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseJson("0")->number(), 0.0);
  EXPECT_EQ(ParseJson("\"hi\"")->str(), "hi");
}

TEST(NetJsonTest, ParsesNestedDocument) {
  const std::string doc =
      "{\"period\":\"2017\",\"window\":7,\"model\":\"rf\","
      "\"rows\":[[1.5,-2.0],[0,3]],\"extra\":{\"deep\":[true,null]}}";
  Result<JsonValue> parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& v = *parsed;
  ASSERT_TRUE(v.is_object());
  EXPECT_EQ(*v.GetString("period"), "2017");
  EXPECT_DOUBLE_EQ(*v.GetNumber("window"), 7.0);
  const JsonValue* rows = v.Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  ASSERT_EQ(rows->array().size(), 2u);
  EXPECT_DOUBLE_EQ(rows->array()[0].array()[1].number(), -2.0);
  const JsonValue* extra = v.Find("extra");
  ASSERT_NE(extra, nullptr);
  EXPECT_TRUE(extra->Find("deep")->array()[1].is_null());
}

TEST(NetJsonTest, StringEscapes) {
  Result<JsonValue> parsed =
      ParseJson("\"a\\\"b\\\\c\\n\\t\\u0041\\u00e9\"");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->str(), "a\"b\\c\n\tA\xc3\xa9");
}

TEST(NetJsonTest, TypedAccessorsNameTheMissingField) {
  Result<JsonValue> parsed = ParseJson("{\"window\":\"seven\"}");
  ASSERT_TRUE(parsed.ok());
  Result<std::string> missing = parsed->GetString("period");
  EXPECT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find("period"), std::string::npos);
  Result<double> mistyped = parsed->GetNumber("window");
  EXPECT_FALSE(mistyped.ok());
  EXPECT_EQ(mistyped.status().code(), StatusCode::kInvalidArgument);
}

TEST(NetJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "{", "[1,", "{\"a\":}", "tru", "1.2.3", "\"unterminated",
        "\"bad\\q\"", "{\"a\":1} trailing", "[1] 2", "nul"}) {
    EXPECT_FALSE(ParseJson(bad).ok()) << bad;
  }
  // Raw control characters must be escaped per RFC 8259.
  EXPECT_FALSE(ParseJson("\"a\nb\"").ok());
}

TEST(NetJsonTest, RejectsNumbersOutOfDoubleRange) {
  // strtod saturates the first three to +-inf and flushes the last two
  // to +-0; a forecast must never see either.
  for (const char* bad :
       {"1e999", "-1e999", "[0.5,1e400]", "1e-400", "-1e-400"}) {
    Result<JsonValue> parsed = ParseJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(parsed.status().message().find("out of range at byte"),
              std::string::npos)
        << parsed.status().message();
  }
  // The largest finite double still parses.
  EXPECT_DOUBLE_EQ(ParseJson("1.7976931348623157e308")->number(),
                   1.7976931348623157e308);
}

TEST(NetJsonTest, RejectsALeadingPlus) {
  // RFC 8259 numbers have no '+' sign; strtod accepted one.
  for (const char* bad : {"+1", "[+1]", "{\"a\":+0.5}"}) {
    Result<JsonValue> parsed = ParseJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_NE(parsed.status().message().find("malformed number"),
              std::string::npos)
        << parsed.status().message();
  }
  // An exponent keeps its sign.
  EXPECT_DOUBLE_EQ(ParseJson("1e+2")->number(), 100.0);
}

TEST(NetJsonTest, NumbersParseToStrtodBits) {
  // Correctly rounded like strtod, subnormals and a 30-digit integer
  // included: a forecast reads exactly the double the client sent.
  for (const char* token :
       {"0.1", "4.9e-324", "2.2250738585072011e-308",
        "123456789012345678901234567890", "-0", "0", "-0.0",
        "1.7976931348623157e308", "-1.25e-7", "3.141592653589793",
        "0.000001", "2.5E3"}) {
    Result<JsonValue> parsed = ParseJson(token);
    ASSERT_TRUE(parsed.ok()) << token << ": " << parsed.status().ToString();
    EXPECT_EQ(std::bit_cast<uint64_t>(parsed->number()),
              std::bit_cast<uint64_t>(std::strtod(token, nullptr)))
        << token;
  }
  EXPECT_TRUE(std::signbit(ParseJson("-0")->number()));
  EXPECT_FALSE(std::signbit(ParseJson("0")->number()));
}

TEST(NetJsonTest, ReaderWalksADocumentValueByValue) {
  JsonReader reader(R"({"a": [1, "x", {"b": null}], "c": true})");
  ASSERT_TRUE(reader.BeginObject().ok());
  std::string key;
  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "a");
  ASSERT_EQ(*reader.Peek(), JsonValue::Type::kArray);
  ASSERT_TRUE(reader.BeginArray().ok());
  ASSERT_TRUE(*reader.NextElement());
  EXPECT_DOUBLE_EQ(*reader.ReadNumber(), 1.0);
  ASSERT_TRUE(*reader.NextElement());
  std::string x;
  ASSERT_TRUE(reader.ReadString(&x).ok());
  EXPECT_EQ(x, "x");
  ASSERT_TRUE(*reader.NextElement());
  EXPECT_TRUE(reader.Skip().ok());  // the whole {"b": null}
  EXPECT_FALSE(*reader.NextElement());
  ASSERT_TRUE(*reader.NextMember(&key));
  EXPECT_EQ(key, "c");
  EXPECT_TRUE(*reader.ReadBool());
  EXPECT_FALSE(*reader.NextMember(&key));
  EXPECT_TRUE(reader.Finish().ok());
}

TEST(NetJsonTest, ReaderRejectsAValueOfTheWrongType) {
  JsonReader reader("[\"1\"]");
  ASSERT_TRUE(reader.BeginArray().ok());
  ASSERT_TRUE(*reader.NextElement());
  EXPECT_FALSE(reader.ReadNumber().ok());
  EXPECT_FALSE(JsonReader("{}").BeginArray().ok());
  EXPECT_FALSE(JsonReader("1").ReadNull().ok());
  // Separators are the reader's to check.
  JsonReader missing_comma("[1 2]");
  ASSERT_TRUE(missing_comma.BeginArray().ok());
  ASSERT_TRUE(*missing_comma.NextElement());
  ASSERT_TRUE(missing_comma.ReadNumber().ok());
  EXPECT_FALSE(missing_comma.NextElement().ok());
}

TEST(NetJsonTest, BoundsNestingDepth) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  deep += "1";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(ParseJson(deep, /*max_depth=*/64).ok());
  EXPECT_TRUE(ParseJson(deep, /*max_depth=*/128).ok());
}

TEST(NetJsonTest, ErrorsCarryBytePosition) {
  Result<JsonValue> parsed = ParseJson("{\"a\": !}");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("at byte"), std::string::npos);
}

TEST(NetJsonTest, EscapeJsonRoundTripsThroughParser) {
  const std::string original = "line1\nline2\t\"quoted\" back\\slash";
  Result<JsonValue> parsed = ParseJson(EscapeJson(original));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->str(), original);
}

}  // namespace
}  // namespace fab::net
