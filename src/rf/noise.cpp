#include "rf/noise.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"

namespace wlansim::rf {

std::vector<dsp::Biquad> flicker_sections(double f_lo, double f_hi,
                                          double fs) {
  if (f_lo <= 0.0 || f_hi <= f_lo || f_hi >= fs / 2.0)
    throw std::invalid_argument("FlickerNoiseSource: bad corner frequencies");
  const double decades = std::log10(f_hi / f_lo);
  const std::size_t stages =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(decades)));
  const double ratio = std::pow(f_hi / f_lo, 1.0 / static_cast<double>(stages));

  std::vector<dsp::Biquad> out;
  double fp = f_lo;
  for (std::size_t k = 0; k < stages; ++k) {
    const double fz = fp * std::sqrt(ratio);  // zero half a stage above pole
    dsp::Biquad s;
    const double p = std::exp(-dsp::kTwoPi * fp / fs);
    const double z = std::exp(-dsp::kTwoPi * fz / fs);
    s.b0 = 1.0;
    s.b1 = -z;
    s.b2 = 0.0;
    s.a1 = -p;
    s.a2 = 0.0;
    out.push_back(s);
    fp *= ratio;
  }
  // Band-limit above the upper corner: without this the shelf cascade is
  // flat from f_hi to Nyquist and the broadband floor, integrated over
  // tens of MHz, would dominate the "flicker" power. One RBJ biquad
  // (2nd-order Butterworth lowpass at f_hi) suffices.
  {
    const double w0 = dsp::kTwoPi * f_hi / fs;
    const double q = 1.0 / std::sqrt(2.0);
    const double alpha = std::sin(w0) / (2.0 * q);
    const double cosw = std::cos(w0);
    const double a0 = 1.0 + alpha;
    dsp::Biquad s;
    s.b0 = (1.0 - cosw) / 2.0 / a0;
    s.b1 = (1.0 - cosw) / a0;
    s.b2 = s.b0;
    s.a1 = -2.0 * cosw / a0;
    s.a2 = (1.0 - alpha) / a0;
    out.push_back(s);
  }
  return out;
}

namespace {

/// Output power of the shaping cascade `stages` (designed for the corners
/// and rate given) under unit-variance drive, measured empirically: 2^15
/// samples of fixed-seed noise through a copy of the cascade. The value is
/// a pure function of the three parameters, so it is measured once per
/// shape in the process and every later source of that shape reuses it.
double unit_drive_power(const std::vector<dsp::Biquad>& stages,
                        double corner_low_hz, double corner_high_hz,
                        double sample_rate_hz) {
  using Key = std::array<std::uint64_t, 3>;
  struct Memo {
    std::mutex mu;
    std::map<Key, double> power;  // guarded by mu
  };
  static Memo memo;
  const Key key{std::bit_cast<std::uint64_t>(corner_low_hz),
                std::bit_cast<std::uint64_t>(corner_high_hz),
                std::bit_cast<std::uint64_t>(sample_rate_hz)};
  {
    const std::lock_guard<std::mutex> lock(memo.mu);
    if (const auto it = memo.power.find(key); it != memo.power.end())
      return it->second;
  }
  // Measured outside the lock: two threads racing on one new shape both
  // compute the same value, and the first insert wins.
  std::vector<dsp::Biquad> probe = stages;
  dsp::Rng cal(12345);
  double acc = 0.0;
  const std::size_t n = 1 << 15;
  for (std::size_t i = 0; i < n; ++i) {
    dsp::Cplx v = cal.cgaussian(1.0);
    for (auto& s : probe) v = s.step(v);
    if (i >= n / 4) acc += std::norm(v);  // skip the settling transient
  }
  const double measured = acc / static_cast<double>(n - n / 4);
  const std::lock_guard<std::mutex> lock(memo.mu);
  return memo.power.emplace(key, measured).first->second;
}

}  // namespace

double flicker_drive_sigma(double power_watts,
                           const std::vector<dsp::Biquad>& sections,
                           double corner_low_hz, double corner_high_hz,
                           double sample_rate_hz) {
  if (power_watts <= 0.0) return 0.0;
  return std::sqrt(power_watts / unit_drive_power(sections, corner_low_hz,
                                                  corner_high_hz,
                                                  sample_rate_hz));
}

FlickerNoiseSource::FlickerNoiseSource(double power_watts, double corner_low_hz,
                                       double corner_high_hz,
                                       double sample_rate_hz, dsp::Rng rng)
    : shape_{std::bit_cast<std::uint64_t>(power_watts),
             std::bit_cast<std::uint64_t>(corner_low_hz),
             std::bit_cast<std::uint64_t>(corner_high_hz),
             std::bit_cast<std::uint64_t>(sample_rate_hz)},
      stages_(flicker_sections(corner_low_hz, corner_high_hz, sample_rate_hz)) {
  if (power_watts < 0.0)
    throw std::invalid_argument("FlickerNoiseSource: negative power");
  drive_sigma_ = flicker_drive_sigma(power_watts, stages_, corner_low_hz,
                                     corner_high_hz, sample_rate_hz);
  begin_lanes(1);
  set_lane_rng(0, rng);
}

void FlickerNoiseSource::reset() {
  std::fill(lane_state_.begin(), lane_state_.end(), 0.0);
}

void FlickerNoiseSource::begin_lanes(std::size_t nl) {
  lane_rng_.assign(nl, dsp::Rng{});
  lane_tape_.assign(nl, nullptr);
  lane_tape_pos_.assign(nl, 0);
  lane_state_.assign(stages_.size() * 4 * nl, 0.0);
}

void FlickerNoiseSource::process_tile_lanes(double* soa, std::size_t n,
                                            std::size_t nl) {
  if (drive_sigma_ <= 0.0) return;
  const std::size_t need = 2 * n;
  lane_units_.resize(nl);

  // Replay: every lane's tape holds this tile shaped under this shape, so
  // add it. soa += 1.0 * w is exactly the soa += w merge below.
  bool replay = true;
  for (std::size_t l = 0; l < nl && replay; ++l) {
    const ShapedNoiseTape* tape = lane_tape_[l];
    replay = tape != nullptr && tape->shape == shape_ &&
             lane_tape_pos_[l] + need <= tape->noise.size();
  }
  if (replay) {
    for (std::size_t l = 0; l < nl; ++l) {
      lane_units_[l] = lane_tape_[l]->noise.data() + lane_tape_pos_[l];
      lane_tape_pos_[l] += need;
    }
    dsp::kernels::lanes_add_scaled_pairs_multi(soa, n, nl, 1.0,
                                               lane_units_.data());
    return;
  }

  // Draw the tile's noise stream first (the rng-ordered sequential part):
  // per lane 2n drive normals, and rails (s0*u)*drive — cgaussian(1.0) *
  // drive_sigma_ decomposed per rail, s0 = sqrt(1/2). Then stream each
  // shaping section stage-outer over all 2*nl rails, then x += w.
  w_soa_.resize(need * nl);
  rscratch_.resize(need * nl);
  for (std::size_t l = 0; l < nl; ++l) {
    double* seg = rscratch_.data() + l * need;
    lane_rng_[l].fill_gaussian(seg, need);
    lane_units_[l] = seg;
  }
  const double s0 = std::sqrt(1.0 / 2.0);
  dsp::kernels::lanes_write_scaled_pairs_multi(w_soa_.data(), n, nl, s0,
                                               drive_sigma_,
                                               lane_units_.data());
  double* st = lane_state_.data();
  for (const dsp::Biquad& s : stages_) {
    dsp::kernels::lanes_biquad(w_soa_.data(), n, nl, s.b0, s.b1, s.b2, s.a1,
                               s.a2, st);
    st += 4 * nl;
  }

  // Record: an empty tape takes this shape; a tape of this shape that is
  // being recorded in order takes the next tile. Any other tape stays put.
  for (std::size_t l = 0; l < nl; ++l) {
    ShapedNoiseTape* tape = lane_tape_[l];
    if (tape == nullptr) continue;
    if (tape->noise.empty())
      tape->shape = shape_;
    else if (tape->shape != shape_ || lane_tape_pos_[l] != tape->noise.size())
      continue;
    tape->noise.resize(lane_tape_pos_[l] + need);
    double* rec = tape->noise.data() + lane_tape_pos_[l];
    for (std::size_t i = 0; i < n; ++i) {
      rec[2 * i] = w_soa_[i * 2 * nl + l];
      rec[2 * i + 1] = w_soa_[i * 2 * nl + nl + l];
    }
    lane_tape_pos_[l] += need;
  }
  dsp::kernels::lanes_add(soa, w_soa_.data(), need * nl);
}

WanderingDcSource::WanderingDcSource(double rms_amplitude, double bandwidth_hz,
                                     double sample_rate_hz, dsp::Rng rng)
    : rms_(rms_amplitude) {
  if (rms_amplitude < 0.0 || bandwidth_hz <= 0.0 || sample_rate_hz <= 0.0 ||
      bandwidth_hz >= sample_rate_hz / 2.0)
    throw std::invalid_argument("WanderingDcSource: bad parameters");
  alpha_ = 1.0 - std::exp(-dsp::kTwoPi * bandwidth_hz / sample_rate_hz);
  // One-pole AR(1): var_state = drive^2 * alpha / (2 - alpha) per rail.
  const double var_per_rail = rms_ * rms_ / 2.0;
  drive_std_ = std::sqrt(var_per_rail * (2.0 - alpha_) / alpha_);
  reseed(rng);
}

void WanderingDcSource::begin_lanes(std::size_t nl) {
  if (nl != 1)
    throw std::invalid_argument("WanderingDcSource: runs at width 1 only");
}

void WanderingDcSource::reset() { state_ = {0.0, 0.0}; }

void WanderingDcSource::reseed(dsp::Rng rng) {
  // Start the walk at a random point of its stationary distribution so
  // short runs are representative.
  rng_ = rng;
  const double var_per_rail = rms_ * rms_ / 2.0;
  state_ = {rng_.gaussian(std::sqrt(var_per_rail)),
            rng_.gaussian(std::sqrt(var_per_rail))};
}

void WanderingDcSource::process_tile_lanes(double* soa, std::size_t n,
                                           std::size_t nl) {
  begin_lanes(nl);
  if (rms_ <= 0.0) return;
  // The AR(1) recurrence is inherently sequential, but the two gaussian
  // draws per sample are not: fill them in bulk (gaussian(sigma) is
  // sigma*u, reproduced below) and keep only the recurrence in the loop.
  scratch_.resize(2 * n);
  rng_.fill_gaussian(scratch_.data(), scratch_.size());
  dsp::Cplx state = state_;
  for (std::size_t i = 0; i < n; ++i) {
    state += alpha_ * (dsp::Cplx{drive_std_ * scratch_[2 * i],
                                 drive_std_ * scratch_[2 * i + 1]} -
                       state);
    soa[2 * i] += state.real();
    soa[2 * i + 1] += state.imag();
  }
  state_ = state;
}

}  // namespace wlansim::rf
