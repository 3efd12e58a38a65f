#include "net/json.h"

#include <gtest/gtest.h>

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
  // strtod saturates these to +-inf; a forecast must never see one.
  for (const char* bad : {"1e999", "-1e999", "[0.5,1e400]"}) {
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
