// Calibrated effective-SNR BER surrogate — the model + store half.
//
// A BER query through the full PHY/RF chain costs hundreds of Monte-Carlo
// packets (~100 ms even on the adaptive engine); the surrogate answers the
// same query in microseconds from a calibration curve measured ONCE per
// front-end configuration. The curve maps one swept axis (channel SNR or
// receive power, both in dB) to the link's error statistics, each knot
// carrying the Wilson confidence interval the adaptive MC engine stopped
// at, and lives in a content-addressed on-disk store keyed by the config
// fingerprint (core/fingerprint.h) — so calibration amortizes across
// processes and sessions, not just across one run.
//
// This layer is deliberately link-free: curves, interpolation, and the
// store are pure data + filesystem code, unit-testable without a WlanLink.
// The driver that fills curves by running the adaptive MC engine lives in
// core/surrogate.h.
#pragma once

#include <cstdint>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace wlansim::sim {

/// Which LinkConfig field a calibration curve sweeps. Everything else is
/// frozen into the curve's fingerprint key.
enum class SurrogateAxis : std::uint8_t {
  kSnrDb = 0,       ///< channel SNR [dB] (LinkConfig::snr_db)
  kRxPowerDbm = 1,  ///< wanted-signal level [dBm] (LinkConfig::rx_power_dbm)
};

std::string_view surrogate_axis_name(SurrogateAxis axis);

/// One calibrated knot: the axis value and the full statistics of the
/// adaptive MC measurement that produced it. The raw counters ride along
/// so a knot is auditable (and so zero-error knots can be floored at half
/// a count when interpolating in the log domain).
struct CalibrationPoint {
  double x = 0.0;  ///< axis value [dB or dBm]
  double ber = 0.0;
  double ber_ci_rel = std::numeric_limits<double>::infinity();
  double per = 0.0;
  double evm = 0.0;
  std::uint64_t bits = 0;
  std::uint64_t bit_errors = 0;
  std::uint64_t packets = 0;
  bool converged = false;  ///< stopping rule met (vs. ran into the cap)
};

/// Interpolated surrogate answer at one axis value.
struct SurrogateQuery {
  double ber = 0.0;
  double ber_ci_rel = std::numeric_limits<double>::infinity();
  double per = 0.0;
  double evm = 0.0;
};

/// A per-(config fingerprint) calibration curve: knots sorted strictly
/// ascending in x, plus the stopping rule they were measured under.
struct CalibrationCurve {
  SurrogateAxis axis = SurrogateAxis::kSnrDb;
  std::string fingerprint;  ///< raw key bytes (core::surrogate_fingerprint)

  // Stopping rule the knots were calibrated under (metadata: a consumer
  // wanting a tighter CI than this recalibrates rather than trusts).
  double target_rel_ci = 0.0;
  double confidence_z = 0.0;
  std::uint64_t min_errors = 0;
  std::uint64_t min_packets = 0;
  std::uint64_t max_packets = 0;

  /// Widest knot spacing a query may interpolate across [dB]. Gaps wider
  /// than this are treated as uncalibrated territory (covers() == false)
  /// rather than bridged by a long, unsupported interpolation.
  double max_gap = 2.5;

  std::vector<CalibrationPoint> points;  ///< sorted, strictly ascending x

  /// True when `x` lands on a knot or strictly inside a bracketed interval
  /// no wider than max_gap — i.e. query(x) is supported.
  bool covers(double x) const;

  /// Interpolated answer; requires covers(x). On a knot (within tolerance)
  /// the stored values are returned exactly; between knots, BER and PER
  /// interpolate with the monotone log-domain rule (see monotone_interp),
  /// EVM linearly, and the CI conservatively as the wider of the two
  /// bracketing knots' intervals.
  SurrogateQuery query(double x) const;

  /// Insert `p` keeping x-order; a knot within kKnotTol of an existing x
  /// replaces it (re-calibration wins over stale data).
  void merge_point(const CalibrationPoint& p);

  /// Knot-coincidence tolerance on the axis [dB].
  static constexpr double kKnotTol = 1e-6;
};

/// Monotone-shape-preserving piecewise-cubic interpolation (Fritsch–
/// Butland tangents, Hermite evaluation): exact at the knots, never
/// overshoots the bracketing knot values, and monotone wherever the data
/// is. `xs` strictly increasing, `xs.size() == ys.size() >= 2`, and `x`
/// within [xs.front(), xs.back()].
double monotone_interp(std::span<const double> xs, std::span<const double> ys,
                       double x);

// ---------------------------------------------------------------------------
// Content-addressed on-disk store
// ---------------------------------------------------------------------------

/// One curve per file under `dir`, named by a 64-bit FNV-1a hash of the
/// fingerprint bytes ("<16 hex>.calib"). The full fingerprint is embedded
/// in the file and verified on load, so a hash collision (or a hand-copied
/// file) reads as a miss, never as wrong data. Writes go through a
/// temp-file + rename, so concurrent writers of the same key leave one
/// complete curve, never a torn one. Every double is serialized as a C99
/// hex-float and round-trips bit-exactly.
class CalibrationStore {
 public:
  explicit CalibrationStore(std::filesystem::path dir) : dir_(std::move(dir)) {}

  const std::filesystem::path& dir() const { return dir_; }

  /// FNV-1a 64-bit hash of the raw fingerprint bytes, as 16 hex digits.
  static std::string key_hex(std::string_view fingerprint);

  std::filesystem::path path_for(std::string_view fingerprint) const;

  /// The stored curve for this exact fingerprint; nullopt when absent,
  /// unreadable, corrupt, or belonging to a different (colliding) key —
  /// every failure mode is a cache miss, never an error.
  std::optional<CalibrationCurve> load(std::string_view fingerprint) const;

  /// Persist `curve` (creating the directory if needed); false on I/O
  /// failure. A cache store must never throw on a full or read-only disk.
  bool save(const CalibrationCurve& curve) const;

 private:
  std::filesystem::path dir_;
};

/// Serialized curve text (exposed for tests; the store's file payload).
std::string serialize_curve(const CalibrationCurve& curve);

/// Parse a serialized curve; nullopt on any malformed input. When
/// `expected_fingerprint` is non-empty the embedded fingerprint must match
/// byte-for-byte (the content-address collision guard).
std::optional<CalibrationCurve> parse_curve(
    std::string_view text, std::string_view expected_fingerprint);

// ---------------------------------------------------------------------------
// Query-side cache
// ---------------------------------------------------------------------------

/// A memory-cached view over a CalibrationStore for inner loops that query
/// the same curve millions of times (the co-design loop, the service
/// cache): first lookup of a fingerprint reads the disk, later lookups are
/// a map find. NOTE the cache deliberately does NOT watch the directory —
/// a caller that deletes store files mid-run and wants to observe the miss
/// must invalidate() (the core sweep drivers default to a fresh
/// BerSurrogate per call for exactly this reason).
class BerSurrogate {
 public:
  explicit BerSurrogate(CalibrationStore store) : store_(std::move(store)) {}

  /// The curve for `fingerprint`, loading and caching it on first touch;
  /// nullptr on miss. The pointer stays valid until put()/invalidate().
  const CalibrationCurve* lookup(std::string_view fingerprint);

  /// Save to the store and (on success) replace the cached entry.
  bool put(CalibrationCurve curve);

  void invalidate() { curves_.clear(); }

  const CalibrationStore& store() const { return store_; }

 private:
  CalibrationStore store_;
  std::map<std::string, CalibrationCurve, std::less<>> curves_;
};

}  // namespace wlansim::sim
