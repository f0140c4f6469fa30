#include "rf/amplifier.h"

#include <cmath>
#include <stdexcept>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "rf/lane_tape.h"

namespace wlansim::rf {

namespace {
/// Gain drop of 1 dB expressed as (1 - 10^{-1/20}) = 0.10875...
const double kComp1dB = 1.0 - std::pow(10.0, -1.0 / 20.0);
}  // namespace

Amplifier::Amplifier(const AmplifierConfig& cfg, double sample_rate_hz,
                     dsp::Rng rng)
    : cfg_(cfg) {
  if (sample_rate_hz <= 0.0)
    throw std::invalid_argument("Amplifier: bad sample rate");
  lin_gain_ = std::pow(10.0, cfg_.gain_db / 20.0);

  a1db_ = std::sqrt(dsp::dbm_to_watts(cfg_.p1db_in_dbm));

  // Rapp: solve for Vsat so the gain is 1 dB compressed at a = a1db.
  const double p = cfg_.rapp_smoothness;
  if (p <= 0.0) throw std::invalid_argument("Amplifier: bad Rapp smoothness");
  const double t = std::pow(10.0, p / 10.0) - 1.0;
  vsat_rapp_ = lin_gain_ * a1db_ / std::pow(t, 1.0 / (2.0 * p));
  lin_gain2_ = lin_gain_ * lin_gain_;
  inv_vsat2_ = 1.0 / (vsat_rapp_ * vsat_rapp_);
  inv_2p_ = 1.0 / (2.0 * p);
  rapp_is_p2_ = (p == 2.0);

  // Envelope-domain cubic y = g (a + c3 a^3): 1 dB compression at a1db
  // gives c3 = -kComp1dB / a1db^2; clip where the polynomial peaks.
  cubic_a3_ = -kComp1dB / (a1db_ * a1db_);
  clip_in_ = a1db_ / std::sqrt(3.0 * kComp1dB);

  const double f = std::pow(10.0, cfg_.noise_figure_db / 10.0);
  noise_power_ = cfg_.noise_enabled && cfg_.noise_figure_db > 0.0
                     ? dsp::kBoltzmann * dsp::kT0 * sample_rate_hz * (f - 1.0)
                     : 0.0;
  begin_lanes(1);
  set_lane_rng(0, rng);
}

double Amplifier::rapp_gain_from_norm(double n2) const {
  // (lin*a / vsat)^(2p) == (lin^2 a^2 / vsat^2)^p, so the curve needs only
  // the envelope squared; at p == 2 both pow() collapse to nested sqrt().
  const double r2 = lin_gain2_ * n2 * inv_vsat2_;
  if (rapp_is_p2_) return lin_gain_ / std::sqrt(std::sqrt(1.0 + r2 * r2));
  return lin_gain_ /
         std::pow(1.0 + std::pow(r2, cfg_.rapp_smoothness), inv_2p_);
}

double Amplifier::am_am(double a) const {
  switch (cfg_.model) {
    case NonlinearityModel::kLinear:
      return lin_gain_ * a;
    case NonlinearityModel::kRapp:
      return a * rapp_gain_from_norm(a * a);
    case NonlinearityModel::kClippedCubic: {
      const double ac = std::min(a, clip_in_);
      return lin_gain_ * (ac + cubic_a3_ * ac * ac * ac);
    }
  }
  throw std::logic_error("Amplifier: bad model");
}

double Amplifier::am_pm(double a) const {
  if (cfg_.am_pm_max_deg == 0.0) return 0.0;
  const double max_rad = cfg_.am_pm_max_deg * dsp::kPi / 180.0;
  const double r = (a * a) / (a1db_ * a1db_);
  return max_rad * r / (1.0 + r);  // quadratic onset, saturating
}

inline dsp::Cplx Amplifier::rapp_sample(dsp::Cplx x) const {
  // Norm-domain Rapp: no |x| (hypot) and no pow per sample. r2 == 0 gives
  // the small-signal gain, so exact zeros need no special case.
  const double n2 = x.real() * x.real() + x.imag() * x.imag();
  return x * rapp_gain_from_norm(n2);
}

inline dsp::Cplx Amplifier::envelope_sample(dsp::Cplx x,
                                            bool pm_active) const {
  const double a = std::abs(x);
  if (a <= 0.0) return dsp::Cplx{0.0, 0.0};
  const double g = am_am(a) / a;
  if (!pm_active) return x * g;
  const double phi = am_pm(a);
  return x * g * dsp::Cplx{std::cos(phi), std::sin(phi)};
}

namespace {

/// Apply a per-sample map to every lane of `n` SoA rows in place.
template <typename F>
void map_lanes(double* soa, std::size_t n, std::size_t nl, F f) {
  for (std::size_t i = 0; i < n; ++i) {
    double* re = soa + i * 2 * nl;
    double* im = re + nl;
    for (std::size_t l = 0; l < nl; ++l) {
      const dsp::Cplx y = f(dsp::Cplx{re[l], im[l]});
      re[l] = y.real();
      im[l] = y.imag();
    }
  }
}

}  // namespace

void Amplifier::begin_lanes(std::size_t nl) {
  lane_rng_.assign(nl, dsp::Rng{});
  lane_tape_.assign(nl, nullptr);
  lane_tape_pos_.assign(nl, 0);
}

void Amplifier::process_tile_lanes(double* soa, std::size_t n,
                                   std::size_t nl) {
  if (noise_power_ > 0.0) {
    // Per lane 2n unit normals in rng order (or their taped recording),
    // then x += s * u per rail, the bulk form of x += cgaussian(p): all
    // lanes' units are gathered first so one fused row-major pass adds them.
    const double s = std::sqrt(noise_power_ / 2.0);
    noise_scratch_.resize(2 * n * nl);
    lane_units_.resize(nl);
    for (std::size_t l = 0; l < nl; ++l) {
      lane_units_[l] =
          lane_tape_units_into(lane_tape_[l], lane_tape_pos_[l], lane_rng_[l],
                               noise_scratch_.data() + l * 2 * n, 2 * n);
    }
    dsp::kernels::lanes_add_scaled_pairs_multi(soa, n, nl, s,
                                               lane_units_.data());
  }
  // Skip the AM/PM rotation when it is configured off: x*g*{cos 0, sin 0}
  // is x*g.
  const bool pm_active = cfg_.am_pm_max_deg != 0.0;
  if (!pm_active && cfg_.model == NonlinearityModel::kRapp) {
    if (rapp_is_p2_) {
      dsp::kernels::lanes_amp_rapp_p2(soa, n, nl, lin_gain_, lin_gain2_,
                                      inv_vsat2_);
    } else {
      map_lanes(soa, n, nl, [this](dsp::Cplx x) { return rapp_sample(x); });
    }
  } else if (!pm_active && cfg_.model == NonlinearityModel::kLinear) {
    // Rails *= g, componentwise identical to x * lin_gain_.
    dsp::kernels::scale(soa, 2 * n * nl, lin_gain_);
  } else {
    map_lanes(soa, n, nl, [this, pm_active](dsp::Cplx x) {
      return envelope_sample(x, pm_active);
    });
  }
}

}  // namespace wlansim::rf
