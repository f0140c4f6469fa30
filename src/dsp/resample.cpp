#include "dsp/resample.h"

#include <cmath>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "dsp/fir.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"

namespace wlansim::dsp {

namespace {

// Per-thread streaming filter reused across calls. reset() before each use
// makes it equivalent to a freshly constructed FirFilter. The map dies with
// its thread, so short-lived pool threads do not leak their filters.
FirFilter& cached_filter(std::size_t factor, double atten_db) {
  thread_local std::map<std::pair<std::size_t, double>, FirFilter> filters;
  const auto key = std::make_pair(factor, atten_db);
  auto it = filters.find(key);
  if (it == filters.end())
    it = filters.emplace(key, FirFilter(resampling_taps(factor, atten_db)))
             .first;
  it->second.reset();
  return it->second;
}

}  // namespace

const RVec& resampling_taps(std::size_t factor, double atten_db) {
  static std::mutex mu;
  static std::map<std::pair<std::size_t, double>, RVec>* cache =
      new std::map<std::pair<std::size_t, double>, RVec>();  // immortal
  std::lock_guard<std::mutex> lock(mu);
  const auto key = std::make_pair(factor, atten_db);
  auto it = cache->find(key);
  if (it == cache->end()) {
    // Cut at half the original Nyquist band in the high-rate domain, with a
    // transition band that keeps tap counts moderate.
    const double cutoff = 0.5 / static_cast<double>(factor);
    const double transition = 0.25 * cutoff;
    it = cache
             ->emplace(key, design_kaiser_lowpass(cutoff - transition / 2.0,
                                                  transition, atten_db))
             .first;
  }
  return it->second;
}

CVec upsample(std::span<const Cplx> in, std::size_t factor, double atten_db) {
  CVec out;
  upsample_into(in, factor, out, atten_db);
  return out;
}

void upsample_into(std::span<const Cplx> in, std::size_t factor, CVec& out,
                   double atten_db) {
  if (factor == 0) throw std::invalid_argument("upsample: factor must be >= 1");
  if (factor == 1) {
    out.assign(in.begin(), in.end());
    return;
  }
  // Zero-stuff (scaled by factor to keep amplitude), stream through the
  // image-reject lowpass from cleared state, flush with `delay` zeros and
  // keep outputs [delay, delay + n): the group-delay-aligned signal.
  // fir_interp is exactly that stream minus its structurally-zero products.
  const RVec& taps = resampling_taps(factor, atten_db);
  const std::size_t delay = (taps.size() - 1) / 2;
  const std::size_t n = in.size() * factor;
  out.resize(n + delay);
  kernels::fir_interp(taps.data(), taps.size(), factor, in.data(), in.size(),
                      static_cast<double>(factor), out.data(), n + delay);
  out.erase(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(delay));
}

std::size_t upsample_inputs_needed(std::size_t out_len, std::size_t factor,
                                   double atten_db) {
  if (factor <= 1) return out_len;
  const std::size_t delay = (resampling_taps(factor, atten_db).size() - 1) / 2;
  return (out_len + delay + factor - 1) / factor;
}

CVec downsample(std::span<const Cplx> in, std::size_t factor, double atten_db) {
  CVec out;
  downsample_into(in, factor, out, atten_db);
  return out;
}

void downsample_into(std::span<const Cplx> in, std::size_t factor, CVec& out,
                     double atten_db) {
  if (factor == 0)
    throw std::invalid_argument("downsample: factor must be >= 1");
  if (factor == 1) {
    out.assign(in.begin(), in.end());
    return;
  }
  FirFilter& f = cached_filter(factor, atten_db);
  // Aligned filter then keep every factor-th sample, without materializing
  // the intermediate full-rate vector.
  out.resize((in.size() + factor - 1) / factor);
  const std::size_t delay = (f.num_taps() - 1) / 2;
  std::size_t oi = 0, aligned_idx = 0;
  auto emit = [&](Cplx y) {
    if (aligned_idx % factor == 0) out[oi++] = y;
    ++aligned_idx;
  };
  for (std::size_t j = 0; j < in.size(); ++j) {
    const Cplx y = f.step(in[j]);
    if (j >= delay) emit(y);
  }
  for (std::size_t j = 0; j < delay; ++j) emit(f.step(Cplx{0.0, 0.0}));
  out.resize(oi);
}

CVec frequency_shift(std::span<const Cplx> in, double freq_norm,
                     double start_phase) {
  CVec out(in.begin(), in.end());
  frequency_shift_in_place(out, freq_norm, start_phase);
  return out;
}

void frequency_shift_in_place(std::span<Cplx> x, double freq_norm,
                              double start_phase) {
  double phase = start_phase;
  const double dphi = kTwoPi * freq_norm;
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = x[i] * Cplx{std::cos(phase), std::sin(phase)};
    phase += dphi;
    if (phase > kPi * 64.0 || phase < -kPi * 64.0) phase = wrap_phase(phase);
  }
}

CVec fractional_resample(std::span<const Cplx> in, double ratio) {
  if (ratio <= 0.0)
    throw std::invalid_argument("fractional_resample: ratio must be > 0");
  if (in.size() < 4) return {};
  const std::size_t out_len = static_cast<std::size_t>(
      std::floor(static_cast<double>(in.size() - 3) * ratio));
  CVec out(out_len);
  for (std::size_t k = 0; k < out_len; ++k) {
    const double t = static_cast<double>(k) / ratio;
    const auto i = static_cast<std::size_t>(t);
    const double mu = t - static_cast<double>(i);
    // Catmull-Rom over the four points around t (i maps to p1).
    const Cplx p0 = in[i == 0 ? 0 : i - 1];
    const Cplx p1 = in[i];
    const Cplx p2 = in[i + 1];
    const Cplx p3 = in[i + 2];
    const double mu2 = mu * mu;
    const double mu3 = mu2 * mu;
    out[k] = 0.5 * ((2.0 * p1) + (-p0 + p2) * mu +
                    (2.0 * p0 - 5.0 * p1 + 4.0 * p2 - p3) * mu2 +
                    (-p0 + 3.0 * p1 - 3.0 * p2 + p3) * mu3);
  }
  return out;
}

}  // namespace wlansim::dsp
