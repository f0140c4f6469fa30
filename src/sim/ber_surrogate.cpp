#include "sim/ber_surrogate.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

namespace wlansim::sim {

namespace {

/// Log-domain value of an error-rate knot. Zero-count knots (no observed
/// errors) are floored at half an event over the observed sample so the
/// log is finite — the standard "rule of half" continuity correction.
double log_rate(double rate, std::uint64_t trials) {
  const double floor = 0.5 / static_cast<double>(std::max<std::uint64_t>(trials, 1));
  return std::log(std::max(rate, floor));
}

double lerp(double a, double b, double t) { return a + (b - a) * t; }

}  // namespace

std::string_view surrogate_axis_name(SurrogateAxis axis) {
  switch (axis) {
    case SurrogateAxis::kSnrDb: return "snr_db";
    case SurrogateAxis::kRxPowerDbm: return "rx_power_dbm";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Interpolation
// ---------------------------------------------------------------------------

double monotone_interp(std::span<const double> xs, std::span<const double> ys,
                       double x) {
  const std::size_t n = xs.size();
  if (n < 2 || ys.size() != n) {
    throw std::invalid_argument("monotone_interp: need >= 2 matching knots");
  }
  if (x < xs.front() || x > xs.back()) {
    throw std::invalid_argument("monotone_interp: x outside knot range");
  }

  // Bracketing interval [i, i+1].
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(xs.begin(), xs.end(), x) - xs.begin());
  if (i > 0) --i;
  if (i >= n - 1) i = n - 2;

  auto secant = [&](std::size_t k) { return (ys[k + 1] - ys[k]) / (xs[k + 1] - xs[k]); };

  // Fritsch–Butland tangent at an interior knot k: the weighted harmonic
  // mean of the adjacent secants when they agree in sign, zero at local
  // extrema. Keeps d/delta within [0, 3] — the Fritsch–Carlson monotone
  // region — so the Hermite piece can neither overshoot nor oscillate.
  auto tangent = [&](std::size_t k) -> double {
    if (k == 0) return secant(0);
    if (k == n - 1) return secant(n - 2);
    const double d0 = secant(k - 1);
    const double d1 = secant(k);
    if (d0 * d1 <= 0.0) return 0.0;
    const double h0 = xs[k] - xs[k - 1];
    const double h1 = xs[k + 1] - xs[k];
    return 3.0 * (h0 + h1) / ((2.0 * h1 + h0) / d0 + (h1 + 2.0 * h0) / d1);
  };

  const double h = xs[i + 1] - xs[i];
  const double t = (x - xs[i]) / h;
  const double t2 = t * t;
  const double t3 = t2 * t;
  const double h00 = 2.0 * t3 - 3.0 * t2 + 1.0;
  const double h10 = t3 - 2.0 * t2 + t;
  const double h01 = -2.0 * t3 + 3.0 * t2;
  const double h11 = t3 - t2;
  return h00 * ys[i] + h10 * h * tangent(i) + h01 * ys[i + 1] +
         h11 * h * tangent(i + 1);
}

// ---------------------------------------------------------------------------
// CalibrationCurve
// ---------------------------------------------------------------------------

bool CalibrationCurve::covers(double x) const {
  if (points.empty()) return false;
  for (const CalibrationPoint& p : points) {
    if (std::abs(p.x - x) <= kKnotTol) return true;
  }
  if (x < points.front().x || x > points.back().x) return false;
  auto hi = std::lower_bound(
      points.begin(), points.end(), x,
      [](const CalibrationPoint& p, double v) { return p.x < v; });
  auto lo = hi - 1;
  return (hi->x - lo->x) <= max_gap + kKnotTol;
}

SurrogateQuery CalibrationCurve::query(double x) const {
  for (const CalibrationPoint& p : points) {
    if (std::abs(p.x - x) <= kKnotTol) {
      // Knot hit: hand back the stored measurement exactly.
      return SurrogateQuery{p.ber, p.ber_ci_rel, p.per, p.evm};
    }
  }
  if (!covers(x)) {
    throw std::out_of_range("CalibrationCurve::query: x not covered; "
                            "check covers() before querying");
  }

  const std::size_t n = points.size();
  std::vector<double> xs(n), lber(n), lper(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = points[i].x;
    lber[i] = log_rate(points[i].ber, points[i].bits);
    lper[i] = log_rate(points[i].per, points[i].packets);
  }

  auto hi = std::lower_bound(
      points.begin(), points.end(), x,
      [](const CalibrationPoint& p, double v) { return p.x < v; });
  const std::size_t i1 = static_cast<std::size_t>(hi - points.begin());
  const std::size_t i0 = i1 - 1;
  const CalibrationPoint& a = points[i0];
  const CalibrationPoint& b = points[i1];

  SurrogateQuery q;
  // Two flooredly-zero knots bracket genuinely error-free territory:
  // report zero, not the floor artifact.
  q.ber = (a.ber == 0.0 && b.ber == 0.0)
              ? 0.0
              : std::exp(monotone_interp(xs, lber, x));
  q.per = (a.per == 0.0 && b.per == 0.0)
              ? 0.0
              : std::exp(monotone_interp(xs, lper, x));
  const double t = (x - a.x) / (b.x - a.x);
  q.evm = lerp(a.evm, b.evm, t);
  // Conservative CI: an interpolated value cannot be known more tightly
  // than the looser of the measurements it sits between.
  q.ber_ci_rel = std::max(a.ber_ci_rel, b.ber_ci_rel);
  return q;
}

void CalibrationCurve::merge_point(const CalibrationPoint& p) {
  auto it = std::lower_bound(
      points.begin(), points.end(), p.x - kKnotTol,
      [](const CalibrationPoint& q, double v) { return q.x < v; });
  if (it != points.end() && std::abs(it->x - p.x) <= kKnotTol) {
    *it = p;
    return;
  }
  points.insert(it, p);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

namespace {

std::string hex_encode(std::string_view bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(kHex[c >> 4]);
    out.push_back(kHex[c & 0xF]);
  }
  return out;
}

bool hex_decode(std::string_view hex, std::string& out) {
  if (hex.size() % 2 != 0) return false;
  auto nib = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  out.clear();
  out.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hiv = nib(hex[i]);
    const int lov = nib(hex[i + 1]);
    if (hiv < 0 || lov < 0) return false;
    out.push_back(static_cast<char>((hiv << 4) | lov));
  }
  return true;
}

// C99 hex-float: every finite double round-trips bit-exactly, and
// infinities (an unconverged knot's ber_ci_rel) print/parse as "inf".
void append_double(std::string& s, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%a", v);
  s += buf;
}

bool parse_double(std::string_view tok, double& out) {
  if (tok.empty()) return false;
  std::string z(tok);
  char* end = nullptr;
  out = std::strtod(z.c_str(), &end);
  return end == z.c_str() + z.size();
}

bool parse_u64(std::string_view tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  std::string z(tok);
  char* end = nullptr;
  out = std::strtoull(z.c_str(), &end, 10);
  return end == z.c_str() + z.size();
}

constexpr std::string_view kMagic = "wlansim-calib v1";

}  // namespace

std::string serialize_curve(const CalibrationCurve& curve) {
  std::string s;
  s.reserve(256 + curve.points.size() * 160);
  s += kMagic;
  s += '\n';
  s += "axis ";
  s += surrogate_axis_name(curve.axis);
  s += '\n';
  s += "fingerprint ";
  s += hex_encode(curve.fingerprint);
  s += '\n';
  s += "rule ";
  append_double(s, curve.target_rel_ci);
  s += ' ';
  append_double(s, curve.confidence_z);
  s += ' ';
  s += std::to_string(curve.min_errors);
  s += ' ';
  s += std::to_string(curve.min_packets);
  s += ' ';
  s += std::to_string(curve.max_packets);
  s += '\n';
  s += "max_gap ";
  append_double(s, curve.max_gap);
  s += '\n';
  s += "points ";
  s += std::to_string(curve.points.size());
  s += '\n';
  for (const CalibrationPoint& p : curve.points) {
    s += "point ";
    append_double(s, p.x);
    s += ' ';
    append_double(s, p.ber);
    s += ' ';
    append_double(s, p.ber_ci_rel);
    s += ' ';
    append_double(s, p.per);
    s += ' ';
    append_double(s, p.evm);
    s += ' ';
    s += std::to_string(p.bits);
    s += ' ';
    s += std::to_string(p.bit_errors);
    s += ' ';
    s += std::to_string(p.packets);
    s += ' ';
    s += p.converged ? '1' : '0';
    s += '\n';
  }
  return s;
}

std::optional<CalibrationCurve> parse_curve(
    std::string_view text, std::string_view expected_fingerprint) {
  std::istringstream in{std::string(text)};
  std::string line;

  if (!std::getline(in, line) || line != kMagic) return std::nullopt;

  auto fields = [](const std::string& l) {
    std::vector<std::string> out;
    std::istringstream ls(l);
    std::string tok;
    while (ls >> tok) out.push_back(tok);
    return out;
  };

  CalibrationCurve c;

  if (!std::getline(in, line)) return std::nullopt;
  {
    auto f = fields(line);
    if (f.size() != 2 || f[0] != "axis") return std::nullopt;
    if (f[1] == surrogate_axis_name(SurrogateAxis::kSnrDb)) {
      c.axis = SurrogateAxis::kSnrDb;
    } else if (f[1] == surrogate_axis_name(SurrogateAxis::kRxPowerDbm)) {
      c.axis = SurrogateAxis::kRxPowerDbm;
    } else {
      return std::nullopt;
    }
  }

  if (!std::getline(in, line)) return std::nullopt;
  {
    auto f = fields(line);
    if (f.empty() || f[0] != "fingerprint" || f.size() > 2) return std::nullopt;
    if (!hex_decode(f.size() == 2 ? f[1] : "", c.fingerprint)) return std::nullopt;
  }
  if (!expected_fingerprint.empty() && c.fingerprint != expected_fingerprint) {
    return std::nullopt;  // hash collision or foreign file: a miss, not data
  }

  if (!std::getline(in, line)) return std::nullopt;
  {
    auto f = fields(line);
    if (f.size() != 6 || f[0] != "rule") return std::nullopt;
    if (!parse_double(f[1], c.target_rel_ci) ||
        !parse_double(f[2], c.confidence_z) ||
        !parse_u64(f[3], c.min_errors) || !parse_u64(f[4], c.min_packets) ||
        !parse_u64(f[5], c.max_packets)) {
      return std::nullopt;
    }
  }

  if (!std::getline(in, line)) return std::nullopt;
  {
    auto f = fields(line);
    if (f.size() != 2 || f[0] != "max_gap" || !parse_double(f[1], c.max_gap)) {
      return std::nullopt;
    }
  }

  if (!std::getline(in, line)) return std::nullopt;
  std::uint64_t n = 0;
  {
    auto f = fields(line);
    if (f.size() != 2 || f[0] != "points" || !parse_u64(f[1], n)) {
      return std::nullopt;
    }
  }

  // The count is untrusted input: size nothing from it. The loop stops at
  // the first missing point line.
  for (std::uint64_t k = 0; k < n; ++k) {
    if (!std::getline(in, line)) return std::nullopt;
    auto f = fields(line);
    if (f.size() != 10 || f[0] != "point") return std::nullopt;
    CalibrationPoint p;
    std::uint64_t conv = 0;
    if (!parse_double(f[1], p.x) || !parse_double(f[2], p.ber) ||
        !parse_double(f[3], p.ber_ci_rel) || !parse_double(f[4], p.per) ||
        !parse_double(f[5], p.evm) || !parse_u64(f[6], p.bits) ||
        !parse_u64(f[7], p.bit_errors) || !parse_u64(f[8], p.packets) ||
        !parse_u64(f[9], conv) || conv > 1) {
      return std::nullopt;
    }
    p.converged = conv == 1;
    if (!c.points.empty() && !(p.x > c.points.back().x)) {
      return std::nullopt;  // must be strictly ascending
    }
    c.points.push_back(p);
  }
  return c;
}

// ---------------------------------------------------------------------------
// CalibrationStore
// ---------------------------------------------------------------------------

std::string CalibrationStore::key_hex(std::string_view fingerprint) {
  // FNV-1a, 64-bit.
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : fingerprint) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

std::filesystem::path CalibrationStore::path_for(
    std::string_view fingerprint) const {
  return dir_ / (key_hex(fingerprint) + ".calib");
}

std::optional<CalibrationCurve> CalibrationStore::load(
    std::string_view fingerprint) const {
  if (fingerprint.empty()) return std::nullopt;
  std::ifstream in(path_for(fingerprint), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  return parse_curve(buf.str(), fingerprint);
}

namespace {

/// One atomic tmp+rename publish attempt. Unique temp name per writer so
/// two processes calibrating the same key never interleave writes; rename()
/// then publishes whole files only.
bool save_attempt(const std::filesystem::path& dir,
                  const std::filesystem::path& final_path,
                  const std::string& payload) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  static std::atomic<unsigned> counter{0};
  std::filesystem::path tmp = final_path;
  tmp += ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << payload;
    out.flush();
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

}  // namespace

bool CalibrationStore::save(const CalibrationCurve& curve) const {
  if (curve.fingerprint.empty()) return false;
  const std::filesystem::path final_path = path_for(curve.fingerprint);
  const std::string payload = serialize_curve(curve);

  // Bounded retry with exponential backoff. Processes sharing a store that
  // race on the same content-addressed key write identical payloads, so
  // last-writer-wins is safe — a transient failure (rename contention,
  // directory creation race, brief EMFILE) should be absorbed here rather
  // than surfaced to a caller that would only retry the identical write.
  constexpr int kAttempts = 5;
  std::chrono::milliseconds backoff{1};
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
    }
    if (save_attempt(dir_, final_path, payload)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// BerSurrogate
// ---------------------------------------------------------------------------

const CalibrationCurve* BerSurrogate::lookup(std::string_view fingerprint) {
  if (fingerprint.empty()) return nullptr;
  auto it = curves_.find(fingerprint);
  if (it != curves_.end()) return &it->second;
  std::optional<CalibrationCurve> loaded = store_.load(fingerprint);
  if (!loaded) return nullptr;
  auto [pos, inserted] =
      curves_.emplace(std::string(fingerprint), std::move(*loaded));
  return &pos->second;
}

bool BerSurrogate::put(CalibrationCurve curve) {
  if (!store_.save(curve)) return false;
  std::string key = curve.fingerprint;
  curves_.insert_or_assign(std::move(key), std::move(curve));
  return true;
}

}  // namespace wlansim::sim
