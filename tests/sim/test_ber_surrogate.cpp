// The BER surrogate's pure model layer (sim/ber_surrogate.h): monotone
// log-domain interpolation, curve coverage/merging, and
// the content-addressed store's exact round-trip guarantees — all without
// a WlanLink.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>

#include "sim/ber_surrogate.h"

namespace wlansim::sim {
namespace {

namespace fs = std::filesystem;

fs::path test_dir(const char* name) {
  fs::path dir = fs::path(::testing::TempDir()) / "wlansim-surrogate" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

// ---------------------------------------------------------------------------
// monotone_interp
// ---------------------------------------------------------------------------

TEST(MonotoneInterp, ExactAtKnots) {
  const std::vector<double> xs{0.0, 1.0, 2.5, 4.0};
  const std::vector<double> ys{-1.0, -2.0, -4.5, -9.0};
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_DOUBLE_EQ(monotone_interp(xs, ys, xs[i]), ys[i]);
  }
}

TEST(MonotoneInterp, LinearDataReproducedExactly) {
  // Equal secants make every Fritsch–Butland tangent equal to the slope,
  // and a Hermite piece with endpoint slopes equal to the secant IS the
  // straight line.
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{5.0, 3.0, 1.0, -1.0};
  for (double x = 0.0; x <= 3.0; x += 0.125) {
    EXPECT_NEAR(monotone_interp(xs, ys, x), 5.0 - 2.0 * x, 1e-12);
  }
}

TEST(MonotoneInterp, MonotoneDataStaysMonotone) {
  // A BER-waterfall-like decade drop: the interpolant must never
  // oscillate, no matter how uneven the decay.
  const std::vector<double> xs{6.0, 7.0, 8.0, 9.0, 10.0};
  const std::vector<double> ys{std::log(1e-1), std::log(8e-2), std::log(1e-3),
                               std::log(8e-4), std::log(1e-6)};
  double prev = monotone_interp(xs, ys, 6.0);
  for (double x = 6.01; x <= 10.0; x += 0.01) {
    const double y = monotone_interp(xs, ys, x);
    EXPECT_LE(y, prev + 1e-12) << "non-monotone at x=" << x;
    prev = y;
  }
}

TEST(MonotoneInterp, NoOvershootBeyondBracketingKnots) {
  // Non-monotone data (a dip): each piece must stay inside the value range
  // of its bracketing knots — no cubic overshoot.
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0};
  const std::vector<double> ys{0.0, -5.0, -4.9, 2.0};
  for (double x = 0.0; x <= 3.0; x += 0.01) {
    const double y = monotone_interp(xs, ys, x);
    const std::size_t i = x < 1.0 ? 0 : (x < 2.0 ? 1 : 2);
    EXPECT_GE(y, std::min(ys[i], ys[i + 1]) - 1e-12);
    EXPECT_LE(y, std::max(ys[i], ys[i + 1]) + 1e-12);
  }
}

TEST(MonotoneInterp, RejectsBadInput) {
  const std::vector<double> xs{0.0, 1.0};
  const std::vector<double> ys{0.0, 1.0};
  EXPECT_THROW(monotone_interp(xs, ys, -0.1), std::invalid_argument);
  EXPECT_THROW(monotone_interp(xs, ys, 1.1), std::invalid_argument);
  const std::vector<double> one{0.0};
  EXPECT_THROW(monotone_interp(one, one, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CalibrationCurve
// ---------------------------------------------------------------------------

CalibrationPoint knot(double x, double ber, double ci = 0.2,
                      std::uint64_t bits = 100000) {
  CalibrationPoint p;
  p.x = x;
  p.ber = ber;
  p.ber_ci_rel = ci;
  p.per = std::min(1.0, ber * 50.0);
  p.evm = 0.3 - 0.01 * x;
  p.bits = bits;
  p.bit_errors = static_cast<std::uint64_t>(ber * static_cast<double>(bits));
  p.packets = 64;
  p.converged = true;
  return p;
}

CalibrationCurve small_curve() {
  CalibrationCurve c;
  c.fingerprint = std::string("\x00key-bytes\xff", 11);
  c.target_rel_ci = 0.25;
  c.confidence_z = 1.96;
  c.min_errors = 50;
  c.min_packets = 8;
  c.max_packets = 768;
  c.points = {knot(6.0, 1e-1), knot(7.0, 3e-2), knot(8.0, 8e-3),
              knot(9.0, 1e-3)};
  return c;
}

TEST(CalibrationCurve, CoversKnotsAndBracketedGaps) {
  const CalibrationCurve c = small_curve();
  EXPECT_TRUE(c.covers(6.0));
  EXPECT_TRUE(c.covers(9.0));
  EXPECT_TRUE(c.covers(7.5));
  EXPECT_FALSE(c.covers(5.9));
  EXPECT_FALSE(c.covers(9.1));
  EXPECT_FALSE(CalibrationCurve{}.covers(0.0));
}

TEST(CalibrationCurve, WideGapIsNotCovered) {
  CalibrationCurve c = small_curve();
  c.points.push_back(knot(15.0, 1e-6));  // 6 dB gap > max_gap 2.5
  EXPECT_TRUE(c.covers(15.0));           // the knot itself still answers
  EXPECT_FALSE(c.covers(12.0));          // but the gap does not
  EXPECT_FALSE(c.covers(9.5 + c.max_gap));
}

TEST(CalibrationCurve, KnotQueryReturnsStoredValuesExactly) {
  const CalibrationCurve c = small_curve();
  const SurrogateQuery q = c.query(7.0);
  EXPECT_EQ(q.ber, c.points[1].ber);
  EXPECT_EQ(q.per, c.points[1].per);
  EXPECT_EQ(q.evm, c.points[1].evm);
  EXPECT_EQ(q.ber_ci_rel, c.points[1].ber_ci_rel);
}

TEST(CalibrationCurve, InterpolationIsMonotoneBetweenKnots) {
  const CalibrationCurve c = small_curve();
  double prev = c.query(6.0).ber;
  for (double x = 6.05; x <= 9.0; x += 0.05) {
    const double ber = c.query(x).ber;
    EXPECT_LE(ber, prev * (1.0 + 1e-12)) << "BER rose at x=" << x;
    EXPECT_GT(ber, 0.0);
    prev = ber;
  }
}

TEST(CalibrationCurve, InterpolatedCiIsWorstOfBracket) {
  CalibrationCurve c = small_curve();
  c.points[1].ber_ci_rel = 0.05;
  c.points[2].ber_ci_rel = 0.31;
  EXPECT_DOUBLE_EQ(c.query(7.5).ber_ci_rel, 0.31);
}

TEST(CalibrationCurve, ZeroErrorKnotsInterpolateSafely) {
  CalibrationCurve c;
  c.points = {knot(10.0, 1e-4), knot(11.0, 0.0), knot(12.0, 0.0)};
  // Between two zero knots: genuinely error-free territory, report zero.
  EXPECT_EQ(c.query(11.5).ber, 0.0);
  // Between a real knot and a zero knot: the log-domain floor (half an
  // error over the knot's bits) keeps the interpolation finite + positive.
  const double mid = c.query(10.5).ber;
  EXPECT_GT(mid, 0.0);
  EXPECT_LT(mid, 1e-4);
}

TEST(CalibrationCurve, MergePointInsertsSortedAndReplacesNearDuplicates) {
  CalibrationCurve c = small_curve();
  c.merge_point(knot(6.5, 5e-2));
  ASSERT_EQ(c.points.size(), 5u);
  EXPECT_DOUBLE_EQ(c.points[1].x, 6.5);
  // Re-calibration at an existing knot replaces, never duplicates.
  c.merge_point(knot(7.0, 2.5e-2));
  ASSERT_EQ(c.points.size(), 5u);
  EXPECT_DOUBLE_EQ(c.points[2].ber, 2.5e-2);
  // Appending at the front/back keeps order.
  c.merge_point(knot(5.0, 2e-1));
  c.merge_point(knot(10.0, 1e-4));
  ASSERT_EQ(c.points.size(), 7u);
  EXPECT_DOUBLE_EQ(c.points.front().x, 5.0);
  EXPECT_DOUBLE_EQ(c.points.back().x, 10.0);
}

// ---------------------------------------------------------------------------
// Serialization + store
// ---------------------------------------------------------------------------

TEST(CurveSerialization, RoundTripIsBitExact) {
  CalibrationCurve c = small_curve();
  // Adversarial doubles: subnormal-adjacent, irrational, negative-zero
  // EVM, and an unconverged knot with an infinite CI.
  c.points[0].ber = 1.2345678901234567e-300;
  c.points[1].evm = -0.0;
  c.points[2].ber = std::acos(-1.0) * 1e-3;
  c.points[3].ber_ci_rel = std::numeric_limits<double>::infinity();
  c.points[3].converged = false;

  const auto parsed = parse_curve(serialize_curve(c), c.fingerprint);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->fingerprint, c.fingerprint);
  EXPECT_EQ(parsed->axis, c.axis);
  EXPECT_EQ(parsed->target_rel_ci, c.target_rel_ci);
  EXPECT_EQ(parsed->confidence_z, c.confidence_z);
  EXPECT_EQ(parsed->min_errors, c.min_errors);
  EXPECT_EQ(parsed->min_packets, c.min_packets);
  EXPECT_EQ(parsed->max_packets, c.max_packets);
  EXPECT_EQ(parsed->max_gap, c.max_gap);
  ASSERT_EQ(parsed->points.size(), c.points.size());
  for (std::size_t i = 0; i < c.points.size(); ++i) {
    // EXPECT_EQ, not NEAR: hex-float serialization must round-trip the
    // exact bit pattern (signed zero compares equal, which is fine — the
    // sign bit carries no meaning for these fields).
    EXPECT_EQ(parsed->points[i].x, c.points[i].x);
    EXPECT_EQ(parsed->points[i].ber, c.points[i].ber);
    EXPECT_EQ(parsed->points[i].ber_ci_rel, c.points[i].ber_ci_rel);
    EXPECT_EQ(parsed->points[i].per, c.points[i].per);
    EXPECT_EQ(parsed->points[i].evm, c.points[i].evm);
    EXPECT_EQ(parsed->points[i].bits, c.points[i].bits);
    EXPECT_EQ(parsed->points[i].bit_errors, c.points[i].bit_errors);
    EXPECT_EQ(parsed->points[i].packets, c.points[i].packets);
    EXPECT_EQ(parsed->points[i].converged, c.points[i].converged);
  }
}

TEST(CurveSerialization, RejectsCorruptInput) {
  const CalibrationCurve c = small_curve();
  const std::string text = serialize_curve(c);
  EXPECT_FALSE(parse_curve("", c.fingerprint).has_value());
  EXPECT_FALSE(parse_curve("not a calib file", c.fingerprint).has_value());
  // Truncated mid-points.
  EXPECT_FALSE(
      parse_curve(text.substr(0, text.size() / 2), c.fingerprint).has_value());
  // Fingerprint mismatch (the content-address collision guard).
  EXPECT_FALSE(parse_curve(text, "different-key").has_value());
  // Garbled number.
  std::string bad = text;
  bad.replace(bad.find("0x"), 2, "zz");
  EXPECT_FALSE(parse_curve(bad, c.fingerprint).has_value());
  // A hostile point count behind a header that passes the key check: the
  // parser stops at the first missing point instead of sizing a buffer
  // from the count.
  const std::size_t at = text.find("\npoints ") + 1;
  ASSERT_NE(at, 0u);
  const std::string points = text.substr(text.find('\n', at) + 1);
  for (const char* n : {"18446744073709551615", "4294967296"}) {
    SCOPED_TRACE(n);
    const std::string hostile =
        text.substr(0, at) + "points " + n + "\n" + points;
    EXPECT_FALSE(parse_curve(hostile, c.fingerprint).has_value());
  }
}

TEST(CalibrationStore, KeyIsStableAndContentAddressed) {
  // FNV-1a of "abc" — a fixed external test vector, so the on-disk layout
  // can never silently change.
  EXPECT_EQ(CalibrationStore::key_hex("abc"), "e71fa2190541574b");
  EXPECT_NE(CalibrationStore::key_hex("abd"), CalibrationStore::key_hex("abc"));
}

TEST(CalibrationStore, SaveLoadRoundTrip) {
  const CalibrationStore store(test_dir("roundtrip"));
  const CalibrationCurve c = small_curve();
  ASSERT_TRUE(store.save(c));
  const auto loaded = store.load(c.fingerprint);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->points.size(), c.points.size());
  EXPECT_EQ(loaded->points[2].ber, c.points[2].ber);
  // A different key is a miss, not the wrong curve.
  EXPECT_FALSE(store.load("some-other-config").has_value());
}

TEST(CalibrationStore, CorruptOrForeignFileReadsAsMiss) {
  const CalibrationStore store(test_dir("corrupt"));
  const CalibrationCurve c = small_curve();
  ASSERT_TRUE(store.save(c));

  {  // truncate the stored file
    std::ofstream f(store.path_for(c.fingerprint),
                    std::ios::binary | std::ios::trunc);
    f << "wlansim-calib v1\naxis snr";
  }
  EXPECT_FALSE(store.load(c.fingerprint).has_value());

  // A file hand-copied under the wrong hash name (simulated collision):
  // the embedded fingerprint does not match, so it must read as a miss.
  CalibrationCurve other = c;
  other.fingerprint = "other-config";
  std::ofstream(store.path_for(c.fingerprint), std::ios::binary)
      << serialize_curve(other);
  EXPECT_FALSE(store.load(c.fingerprint).has_value());
}

TEST(CalibrationStore, SaveFailureReturnsFalseNotThrow) {
  // Point the store at a path that cannot be a directory.
  const fs::path dir = test_dir("notadir");
  const fs::path file = dir / "occupied";
  std::ofstream(file) << "x";
  const CalibrationStore store(file / "sub");
  EXPECT_FALSE(store.save(small_curve()));
}

TEST(BerSurrogate, CachesLookupsUntilInvalidated) {
  BerSurrogate cache{CalibrationStore(test_dir("view"))};
  const CalibrationCurve c = small_curve();
  EXPECT_EQ(cache.lookup(c.fingerprint), nullptr);
  ASSERT_TRUE(cache.put(c));
  const CalibrationCurve* hit = cache.lookup(c.fingerprint);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->points.size(), c.points.size());

  // Deleting the backing file is NOT observed by the memory cache…
  fs::remove(cache.store().path_for(c.fingerprint));
  EXPECT_NE(cache.lookup(c.fingerprint), nullptr);
  // …until invalidate() drops it back to the (now empty) disk.
  cache.invalidate();
  EXPECT_EQ(cache.lookup(c.fingerprint), nullptr);
}

}  // namespace
}  // namespace wlansim::sim
