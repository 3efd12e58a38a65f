#include "util/string_util.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

namespace fab {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, EmptyFieldsPreserved) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

TEST(JsonNumberTest, RoundTripsFiniteAndQuotesNonFinite) {
  EXPECT_EQ(JsonNumber(3.5), "3.5");
  EXPECT_EQ(JsonNumber(0.1), "0.10000000000000001");  // %.17g round trip
  EXPECT_EQ(JsonNumber(-2.0), "-2");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "\"inf\"");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()),
            "\"-inf\"");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()),
            "\"nan\"");
}

TEST(EscapeJsonTest, EscapesQuotesBackslashesAndEveryControlCharacter) {
  EXPECT_EQ(EscapeJson(""), "\"\"");
  EXPECT_EQ(EscapeJson("a\"b\\c"), "\"a\\\"b\\\\c\"");
  EXPECT_EQ(EscapeJson("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  // Control characters without a short escape become \u00XX; none is
  // ever written raw.
  EXPECT_EQ(EscapeJson(std::string("\x01\x1f", 2)), "\"\\u0001\\u001f\"");
  EXPECT_EQ(EscapeJson(std::string(1, '\0')), "\"\\u0000\"");
  for (int c = 0; c < 0x20; ++c) {
    const std::string escaped = EscapeJson(std::string(1, static_cast<char>(c)));
    for (size_t i = 1; i + 1 < escaped.size(); ++i) {
      EXPECT_GE(static_cast<unsigned char>(escaped[i]), 0x20) << "char " << c;
    }
  }
  // Bytes >= 0x20 (UTF-8 included) pass through untouched.
  EXPECT_EQ(EscapeJson("caf\xc3\xa9 /"), "\"caf\xc3\xa9 /\"");
}

}  // namespace
}  // namespace fab
