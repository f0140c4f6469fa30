#include "dsp/mathutil.h"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"

namespace wlansim::dsp {

double to_db(double ratio) { return 10.0 * std::log10(ratio); }

double from_db(double db) { return std::pow(10.0, db / 10.0); }

double watts_to_dbm(double watts) { return 10.0 * std::log10(watts * 1e3); }

double dbm_to_watts(double dbm) { return 1e-3 * std::pow(10.0, dbm / 10.0); }

double mean_power(std::span<const Cplx> x) {
  if (x.empty()) return 0.0;
  return kernels::power_sum(x.data(), x.size()) /
         static_cast<double>(x.size());
}

double rms(std::span<const Cplx> x) { return std::sqrt(mean_power(x)); }

void set_mean_power(std::span<Cplx> x, double target_watts) {
  const double p = mean_power(x);
  if (p <= 0.0) return;
  const double g = std::sqrt(target_watts / p);
  for (Cplx& v : x) v *= g;
}

double sinc(double x) {
  if (std::abs(x) < 1e-12) return 1.0;
  const double px = kPi * x;
  return std::sin(px) / px;
}

std::size_t next_pow2(std::size_t n) {
  if (n == 0) throw std::invalid_argument("next_pow2: n must be >= 1");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

double bessel_i0(double x) {
  // Power series: I0(x) = sum_k ((x/2)^k / k!)^2. Converges quickly for the
  // argument range Kaiser windows use (|x| < ~30).
  const double half = x / 2.0;
  double term = 1.0;
  double sum = 1.0;
  for (int k = 1; k < 64; ++k) {
    term *= half / k;
    const double t2 = term * term;
    sum += t2;
    if (t2 < sum * 1e-17) break;
  }
  return sum;
}

double wrap_phase(double phi) {
  phi = std::fmod(phi + kPi, kTwoPi);
  if (phi <= 0.0) phi += kTwoPi;
  return phi - kPi;
}

}  // namespace wlansim::dsp
