// The service's single-line JSON codec: shortest-round-trip doubles, the
// exact-u64 integer channel, string escapes, and strict parsing.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include "service/json.h"

namespace wlansim::service {
namespace {

Json parse_ok(const std::string& text) {
  std::string err;
  const std::optional<Json> j = Json::parse(text, &err);
  EXPECT_TRUE(j.has_value()) << text << " -> " << err;
  return j.value();
}

void expect_parse_fails(const std::string& text) {
  EXPECT_FALSE(Json::parse(text).has_value()) << text;
}

TEST(ServiceJson, ScalarRoundTrips) {
  EXPECT_EQ(Json().dump(), "null");
  EXPECT_EQ(Json::boolean(true).dump(), "true");
  EXPECT_EQ(Json::boolean(false).dump(), "false");
  EXPECT_EQ(Json::string("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json::number(1.5).dump(), "1.5");

  EXPECT_TRUE(parse_ok("null").is_null());
  EXPECT_TRUE(parse_ok("true").as_bool());
  EXPECT_FALSE(parse_ok("false").as_bool());
  EXPECT_EQ(parse_ok("\"hi\"").as_string(), "hi");
  EXPECT_EQ(parse_ok("1.5").as_double(), 1.5);
}

TEST(ServiceJson, DoublesRoundTripBitExact) {
  const double cases[] = {0.0,
                          -0.0,
                          1.0 / 3.0,
                          0.1,
                          6.02214076e23,
                          -1.7976931348623157e308,
                          5e-324,
                          123456789.123456789};
  for (const double v : cases) {
    const std::string text = Json::number(v).dump();
    const double back = parse_ok(text).as_double();
    EXPECT_EQ(std::signbit(back), std::signbit(v)) << text;
    EXPECT_EQ(back, v) << text;
  }
}

TEST(ServiceJson, NonFiniteDumpsAsNull) {
  EXPECT_EQ(Json::number(std::numeric_limits<double>::infinity()).dump(),
            "null");
  EXPECT_EQ(Json::number(std::nan("")).dump(), "null");
}

TEST(ServiceJson, U64ChannelIsExact) {
  // 2^63 + 1 is not representable as a double; the u64 channel must carry
  // it anyway.
  const std::uint64_t big = (1ull << 63) + 1;
  const Json j = Json::number_u64(big);
  EXPECT_EQ(j.dump(), "9223372036854775809");
  EXPECT_EQ(parse_ok(j.dump()).as_u64(), big);
  // Integral doubles in [0, 2^53] dump without a decimal point.
  EXPECT_EQ(Json::number(2.0).dump(), "2");
}

TEST(ServiceJson, ParserPutsIntegralsInTheU64Channel) {
  EXPECT_EQ(parse_ok("42").as_u64(), 42u);
  EXPECT_THROW(parse_ok("42.5").as_u64(), std::runtime_error);
  EXPECT_THROW(parse_ok("-3").as_u64(), std::runtime_error);
  EXPECT_EQ(parse_ok("-3").as_double(), -3.0);
}

TEST(ServiceJson, NumberTokensAtTheEdges) {
  // The u64 channel holds up to 2^64 - 1; one more falls back to a double.
  const Json max = parse_ok("18446744073709551615");
  EXPECT_EQ(max.as_u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(max.dump(), "18446744073709551615");
  const Json over = parse_ok("18446744073709551616");
  EXPECT_EQ(over.as_double(), 18446744073709551616.0);
  EXPECT_THROW(over.as_u64(), std::runtime_error);
  // -0 keeps its sign through parse and dump.
  const Json neg_zero = parse_ok("-0");
  EXPECT_EQ(neg_zero.as_double(), 0.0);
  EXPECT_TRUE(std::signbit(neg_zero.as_double()));
  EXPECT_EQ(neg_zero.dump(), "-0");
  // Overflow reads as +-inf and underflow as +-0, as strtod reads them.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(parse_ok("1e999").as_double(), inf);
  EXPECT_EQ(parse_ok("-1e999").as_double(), -inf);
  EXPECT_EQ(parse_ok("1e-400").as_double(), 0.0);
  EXPECT_FALSE(std::signbit(parse_ok("1e-400").as_double()));
  EXPECT_TRUE(std::signbit(parse_ok("-1e-400").as_double()));
  // Subnormals and exponent spellings parse exactly.
  EXPECT_EQ(parse_ok("5e-324").as_double(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_ok("2.2250738585072014e-308").as_double(),
            std::numeric_limits<double>::min());
  EXPECT_EQ(parse_ok("1E5").as_double(), 1e5);
  EXPECT_EQ(parse_ok("1.5e+3").as_double(), 1500.0);
  EXPECT_EQ(parse_ok("-2.5E-1").as_double(), -0.25);
}

TEST(ServiceJson, NumbersParseBitIdenticalToStrtod) {
  std::mt19937_64 rng(11);
  for (int i = 0; i < 50000; ++i) {
    const std::uint64_t bits = rng();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    if (!std::isfinite(v)) continue;
    char full[40];
    std::snprintf(full, sizeof full, "%.17g", v);
    for (const std::string& text :
         {Json::number(v).dump(), std::string(full)}) {
      const double got = parse_ok(text).as_double();
      const double want = std::strtod(text.c_str(), nullptr);
      EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << text;
    }
  }
}

TEST(ServiceJson, StringEscapes) {
  const std::string raw = "a\"b\\c\n\t\x01z";
  const Json j = Json::string(raw);
  EXPECT_EQ(parse_ok(j.dump()).as_string(), raw);
  // \uXXXX escapes, including a surrogate pair.
  EXPECT_EQ(parse_ok("\"\\u0041\\u00e9\"").as_string(), "A\xc3\xa9");
  EXPECT_EQ(parse_ok("\"\\ud83d\\ude00\"").as_string(),
            "\xf0\x9f\x98\x80");  // U+1F600
}

TEST(ServiceJson, ObjectsPreserveInsertionOrder) {
  Json obj = Json::object();
  obj.set("z", Json::number(1.0));
  obj.set("a", Json::number(2.0));
  obj.set("z", Json::number(3.0));  // update in place, keeps slot
  EXPECT_EQ(obj.dump(), "{\"z\":3,\"a\":2}");
  const Json back = parse_ok(obj.dump());
  EXPECT_EQ(back.find("z")->as_double(), 3.0);
  EXPECT_EQ(back.find("a")->as_double(), 2.0);
  EXPECT_EQ(back.find("missing"), nullptr);
}

TEST(ServiceJson, NestedRoundTrip) {
  Json arr = Json::array();
  arr.push_back(Json::number_u64(1));
  arr.push_back(Json::string("two"));
  Json inner = Json::object();
  inner.set("k", Json::boolean(true));
  arr.push_back(std::move(inner));
  Json root = Json::object();
  root.set("list", std::move(arr));
  const Json back = parse_ok(root.dump());
  const Json::Array& list = back.find("list")->as_array();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0].as_u64(), 1u);
  EXPECT_EQ(list[1].as_string(), "two");
  EXPECT_TRUE(list[2].find("k")->as_bool());
}

TEST(ServiceJson, MalformedInputsAreRejected) {
  expect_parse_fails("");
  expect_parse_fails("{");
  expect_parse_fails("[1,]");
  expect_parse_fails("{\"a\":}");
  expect_parse_fails("nul");
  expect_parse_fails("1.2.3");
  expect_parse_fails("\"unterminated");
  expect_parse_fails("{} trailing");
  expect_parse_fails("{\"a\":1 \"b\":2}");
  expect_parse_fails("\"bad \\x escape\"");
}

TEST(ServiceJson, DepthLimitStopsRunawayNesting) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  expect_parse_fails(deep);
}

TEST(ServiceJson, TypeMismatchThrows) {
  EXPECT_THROW(parse_ok("1").as_string(), std::runtime_error);
  EXPECT_THROW(parse_ok("\"x\"").as_double(), std::runtime_error);
  EXPECT_THROW(parse_ok("1.5").as_u64(), std::runtime_error);
}

}  // namespace
}  // namespace wlansim::service
