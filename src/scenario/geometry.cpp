#include "scenario/geometry.h"

#include <algorithm>
#include <cmath>

#include "dsp/rng.h"

namespace wlansim::scenario {

namespace {

/// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// Reflect `v` into [-half, half] (handles multiple bounces for steps
/// longer than the area).
double reflect(double v, double half) {
  if (half <= 0.0) return 0.0;
  const double period = 4.0 * half;
  double r = std::fmod(v + half, period);
  if (r < 0.0) r += period;
  return r <= 2.0 * half ? r - half : 3.0 * half - r;
}

}  // namespace

double distance_m(Vec2 a, Vec2 b) {
  return std::hypot(a.x - b.x, a.y - b.y);
}

std::uint64_t geo_seed(std::uint64_t seed, GeoStream stream,
                       std::uint64_t entity, std::uint64_t step) {
  // Chain the mix so each argument lands in a distinct avalanche round:
  // equal XOR-sums of different tuples cannot collide.
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ static_cast<std::uint64_t>(stream));
  h = mix64(h ^ entity);
  h = mix64(h ^ step);
  return h;
}

double log_distance_path_loss_db(const PathLossConfig& cfg, double dist) {
  const double d = std::max(dist, cfg.min_distance_m);
  return cfg.ref_loss_db +
         10.0 * cfg.exponent * std::log10(d / cfg.ref_distance_m);
}

namespace {

/// out[k] = the shadowing term from transmitter first + k.
void shadowing_terms(std::uint64_t seed, std::uint64_t station,
                     std::uint64_t first, std::uint64_t step, double sigma_db,
                     std::span<double> out) {
  if (!(sigma_db > 0.0)) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  constexpr std::size_t kGroup = dsp::Mt19937_64::kLockstep;
  for (std::size_t b = 0; b < out.size(); b += kGroup) {
    const std::size_t n = std::min(kGroup, out.size() - b);
    std::uint64_t seeds[kGroup] = {};
    for (std::size_t k = 0; k < n; ++k) {
      // Fold (station, bss) into one entity counter; bss counts are tiny
      // next to the 2^32 stride, so tuples never alias.
      const std::uint64_t entity = ((first + b + k) << 32) ^ station;
      seeds[k] = geo_seed(seed, GeoStream::kShadowing, entity, step);
    }
    dsp::Rng rngs[kGroup];
    dsp::Rng::seed_lockstep(rngs, seeds, n);
    for (std::size_t k = 0; k < n; ++k)
      out[b + k] = rngs[k].gaussian(sigma_db);
  }
}

}  // namespace

double shadowing_db(std::uint64_t seed, std::uint64_t station,
                    std::uint64_t bss, std::uint64_t step, double sigma_db) {
  double term = 0.0;
  shadowing_terms(seed, station, bss, step, sigma_db, {&term, 1});
  return term;
}

void shadowing_db(std::uint64_t seed, std::uint64_t station,
                  std::uint64_t step, double sigma_db, std::span<double> out) {
  shadowing_terms(seed, station, 0, step, sigma_db, out);
}

Vec2 place_uniform(std::uint64_t seed, std::uint64_t entity,
                   double area_half_m) {
  dsp::Rng rng(geo_seed(seed, GeoStream::kPlacement, entity));
  return {rng.uniform(-area_half_m, area_half_m),
          rng.uniform(-area_half_m, area_half_m)};
}

Vec2 walk_step(Vec2 pos, std::uint64_t seed, std::uint64_t station,
               std::uint64_t step, double step_m, double area_half_m) {
  if (!(step_m > 0.0)) return pos;
  dsp::Rng rng(geo_seed(seed, GeoStream::kWalk, station, step));
  const double theta = rng.uniform(0.0, 2.0 * M_PI);
  return {reflect(pos.x + step_m * std::cos(theta), area_half_m),
          reflect(pos.y + step_m * std::sin(theta), area_half_m)};
}

}  // namespace wlansim::scenario
