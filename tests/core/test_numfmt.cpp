// core::append_shortest pinned byte for byte: a golden table, and equality
// with the reference — the `%.*g` + sscanf loop that tries every precision
// from 1 up — over random bit patterns, the edges of the double format and
// the short decimals that traces and replies print.
// The reference lives here only; the shipped libraries carry the one fast
// formatter.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <algorithm>
#include <random>
#include <string>

#include "core/numfmt.h"

namespace wlansim::core {
namespace {

/// The reference: `%.{p}g` at the first p in [1, 16] that reads back as
/// v, else `%.17g`.
std::string reference_shortest(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[40];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(shorter, "%lf", &back);
    if (back == v) return shorter;
  }
  return buf;
}

std::string shortest(double v) {
  std::string out;
  append_shortest(out, v);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void expect_matches_reference(double v) {
  EXPECT_EQ(shortest(v), reference_shortest(v)) << std::hexfloat << v;
}

TEST(NumFmt, GoldenTable) {
  const struct {
    double v;
    const char* text;
  } cases[] = {
      {0.5, "0.5"},
      {1e-5, "1e-05"},
      {100000.0, "1e+05"},
      {-0.0, "-0"},
      {0.0, "0"},
      {0.1, "0.1"},
      {0.1 + 0.2, "0.30000000000000004"},
      {1.0 / 3.0, "0.3333333333333333"},
      {-2.5, "-2.5"},
      {100.0, "1e+02"},  // `%.1g` already reads back: the %g rule, not %f
      {123456.0, "123456"},
      {0.0001, "0.0001"},
      {9007199254740992.0, "9007199254740992"},  // 2^53
      {1e23, "1e+23"},  // no double is 1e23; its nearest one reads back
      {std::numeric_limits<double>::denorm_min(), "5e-324"},
      {DBL_MIN, "2.2250738585072014e-308"},
      {DBL_MAX, "1.7976931348623157e+308"},
      {-DBL_MAX, "-1.7976931348623157e+308"},
      {std::numeric_limits<double>::infinity(), "inf"},
      {-std::numeric_limits<double>::infinity(), "-inf"},
      {std::numeric_limits<double>::quiet_NaN(), "nan"},
  };
  for (const auto& c : cases) {
    EXPECT_EQ(shortest(c.v), c.text) << std::hexfloat << c.v;
    EXPECT_EQ(reference_shortest(c.v), c.text) << std::hexfloat << c.v;
  }
}

TEST(NumFmt, EdgesMatchReference) {
  // Every power of two and its neighbours one ulp either side, both signs:
  // the shortest form's interval is asymmetric exactly at these values.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double s : {1.0, -1.0}) {
      expect_matches_reference(s * p);
      expect_matches_reference(s * std::nextafter(p, 0.0));
      expect_matches_reference(s * std::nextafter(p, HUGE_VAL));
    }
  }
  // Subnormals: random mantissas under a zero exponent.
  std::mt19937_64 rng(7);
  for (int i = 0; i < 20000; ++i) {
    const double d = from_bits(rng() & 0x000FFFFFFFFFFFFFull);
    expect_matches_reference(d);
    expect_matches_reference(-d);
  }
  for (const double v : {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN})
    expect_matches_reference(v);
  expect_matches_reference(-std::numeric_limits<double>::quiet_NaN());
}

// 2^20 seeded random bit patterns, in shards so the suite runs them in
// parallel: the reference costs ~25 us a value at these magnitudes.
class NumFmtRandomBits : public ::testing::TestWithParam<int> {};

TEST_P(NumFmtRandomBits, MatchReference) {
  constexpr int kPerShard = 1 << 17;
  std::mt19937_64 rng(0x5eed0000u + static_cast<unsigned>(GetParam()));
  int mismatches = 0;
  for (int i = 0; i < kPerShard; ++i) {
    const double v = from_bits(rng());
    const std::string got = shortest(v);
    const std::string want = reference_shortest(v);
    if (got != want && ++mismatches <= 10)
      ADD_FAILURE() << std::hexfloat << v << ": got " << got << ", want "
                    << want;
  }
  EXPECT_EQ(mismatches, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, NumFmtRandomBits, ::testing::Range(0, 8));

// The values traces and JSON replies actually print are short decimals,
// which random bit patterns almost never are: integers, k * 10^j, random
// 1-17 digit decimals with their neighbours one ulp either side, and
// (p+1)-digit decimals ending in 5, the ties of p-digit rounding. Each is
// the double nearest the decimal text, as strtod reads it.
double parse(const std::string& text) { return std::strtod(text.c_str(), nullptr); }

std::string random_digits(std::mt19937_64& rng, int n) {
  std::string d(static_cast<std::size_t>(n), '0');
  for (char& c : d) c = static_cast<char>('0' + rng() % 10);
  d[0] = static_cast<char>('1' + rng() % 9);
  return d;
}

/// v and its neighbours one ulp either side, both signs.
int count_mismatches(double v) {
  int bad = 0;
  for (const double w : {v, std::nextafter(v, 0.0), std::nextafter(v, HUGE_VAL)}) {
    for (const double x : {w, -w}) {
      const std::string got = shortest(x);
      const std::string want = reference_shortest(x);
      if (got != want && ++bad <= 10)
        ADD_FAILURE() << std::hexfloat << x << ": got " << got << ", want "
                      << want;
    }
  }
  return bad;
}

class NumFmtDecimals : public ::testing::TestWithParam<int> {};

TEST_P(NumFmtDecimals, MatchReference) {
  constexpr int kPerShard = 3000;
  std::mt19937_64 rng(0xdec0000u + static_cast<unsigned>(GetParam()));
  int bad = 0;
  for (int i = 0; i < kPerShard; ++i) {
    // Integers: small counts, then up to 19 digits (past 2^53).
    bad += count_mismatches(static_cast<double>(GetParam() * kPerShard + i));
    bad += count_mismatches(parse(random_digits(rng, 1 + i % 19)));
    // k * 10^j, k of 1-3 digits, j in [-40, 40].
    const int j = static_cast<int>(rng() % 81) - 40;
    bad += count_mismatches(parse(std::to_string(1 + rng() % 999) + "e" +
                                  std::to_string(j)));
    // A random decimal of 1-17 significant digits, exponent in [-30, 30].
    const int p = 1 + static_cast<int>(rng() % 17);
    const int e = static_cast<int>(rng() % 61) - 30;
    const std::string d = random_digits(rng, p);
    bad += count_mismatches(parse(d.substr(0, 1) + "." + d.substr(1) + "e" +
                                  std::to_string(e)));
    // p digits and a final 5: halfway between two p-digit decimals.
    const std::string t = random_digits(rng, std::min(p, 16)) + "5";
    bad += count_mismatches(parse(t.substr(0, 1) + "." + t.substr(1) + "e" +
                                  std::to_string(e)));
  }
  EXPECT_EQ(bad, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, NumFmtDecimals, ::testing::Range(0, 4));

}  // namespace
}  // namespace wlansim::core
