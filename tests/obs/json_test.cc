#include "obs/json.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "common/rng.h"
#include "minijson.h"

namespace gupt {
namespace {

// Quotes JsonEscape(text), parses the literal back and returns its value.
std::string RoundTrip(const std::string& text) {
  std::string literal = "\"";
  literal += obs::JsonEscape(text);
  literal += '"';
  testjson::JsonValue value;
  EXPECT_TRUE(testjson::ParseJson(literal, &value)) << literal;
  EXPECT_EQ(value.type, testjson::JsonValue::Type::kString) << literal;
  return value.string;
}

std::uint64_t Bits(double x) {
  std::uint64_t bits;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

TEST(JsonEscapeTest, EveryControlByteRoundTrips) {
  for (int c = 0; c < 0x20; ++c) {
    std::string text = "a";
    text += static_cast<char>(c);
    text += 'b';
    const std::string escaped = obs::JsonEscape(text);
    // A JSON string may not hold a raw control byte.
    for (char e : escaped) {
      EXPECT_GE(static_cast<unsigned char>(e), 0x20) << "byte " << c;
    }
    EXPECT_EQ(RoundTrip(text), text) << "byte " << c;
  }
}

TEST(JsonEscapeTest, EscapesByNameWhereJsonHasOne) {
  EXPECT_EQ(obs::JsonEscape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(obs::JsonEscape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(obs::JsonEscape("\x01\x1f"), "\\u0001\\u001f");
  EXPECT_EQ(obs::JsonEscape("a\"b\\c"), "a\\\"b\\\\c");
}

TEST(JsonEscapeTest, QuoteAndBackslashRoundTrip) {
  for (const std::string text : {"\"", "\\", "\\\"", "say \"hi\" \\o/"}) {
    EXPECT_EQ(RoundTrip(text), text);
  }
}

TEST(JsonEscapeTest, Utf8PassesThroughUnchanged) {
  // "ε budget · 東京 🙂" (two-, three- and four-byte sequences) and DEL.
  const std::string text =
      "\xce\xb5 budget \xc2\xb7 \xe6\x9d\xb1\xe4\xba\xac \xf0\x9f\x99\x82\x7f";
  EXPECT_EQ(obs::JsonEscape(text), text);
  EXPECT_EQ(RoundTrip(text), text);
}

TEST(JsonNumberTest, NonFiniteIsNull) {
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(obs::JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::JsonNumber(-std::numeric_limits<double>::infinity()),
            "null");
}

TEST(JsonNumberTest, ExactValuesPrintShort) {
  EXPECT_EQ(obs::JsonNumber(2.25), "2.25");
  EXPECT_EQ(obs::JsonNumber(-3.0), "-3");
  EXPECT_EQ(obs::JsonNumber(0.0), "0");
}

TEST(JsonNumberTest, RandomFiniteDoublesRoundTripBitForBit) {
  // Pre-registered: the first 10,000 finite doubles drawn as raw 64-bit
  // patterns from this seed, so every exponent, both signs, subnormals
  // and -0 are represented.
  Rng rng(0x150a0001);
  int tested = 0;
  while (tested < 10000) {
    const std::uint64_t bits = rng.NextUint64();
    double x;
    std::memcpy(&x, &bits, sizeof(x));
    if (!std::isfinite(x)) continue;
    ++tested;
    const std::string text = obs::JsonNumber(x);
    ASSERT_EQ(Bits(std::strtod(text.c_str(), nullptr)), bits) << text;
    testjson::JsonValue value;
    ASSERT_TRUE(testjson::ParseJson(text, &value)) << text;
    ASSERT_EQ(value.type, testjson::JsonValue::Type::kNumber) << text;
    ASSERT_EQ(Bits(value.number), bits) << text;
  }
}

}  // namespace
}  // namespace gupt
