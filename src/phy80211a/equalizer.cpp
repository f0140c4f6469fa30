#include "phy80211a/equalizer.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "dsp/fft.h"
#include "phy80211a/preamble.h"

namespace wlansim::phy {

std::array<dsp::Cplx, kNumDataCarriers> ChannelEstimate::data_carriers() const {
  std::array<dsp::Cplx, kNumDataCarriers> out;
  const auto& dc = data_carrier_indices();
  for (std::size_t i = 0; i < kNumDataCarriers; ++i) out[i] = at_carrier(dc[i]);
  return out;
}

std::array<dsp::Cplx, kNumPilots> ChannelEstimate::pilot_carriers() const {
  std::array<dsp::Cplx, kNumPilots> out;
  const auto& pc = pilot_carrier_indices();
  for (std::size_t i = 0; i < kNumPilots; ++i) out[i] = at_carrier(pc[i]);
  return out;
}

ChannelEstimate estimate_channel(std::span<const dsp::Cplx> lts) {
  if (lts.size() < 2 * kNfft)
    throw std::invalid_argument("estimate_channel: need 128 samples");
  static const dsp::Fft engine(kNfft);
  const dsp::CVec y1 = engine.forward(lts.first(kNfft));
  const dsp::CVec y2 = engine.forward(lts.subspan(kNfft, kNfft));
  const dsp::CVec& l = long_training_freq();

  ChannelEstimate est;
  for (int k = -26; k <= 26; ++k) {
    const dsp::Cplx lk = l[static_cast<std::size_t>(k + 26)];
    if (std::abs(lk) < 1e-12) {
      est.h[static_cast<std::size_t>(k + 26)] = dsp::Cplx{0.0, 0.0};  // DC unused
      continue;
    }
    const std::size_t bin = carrier_to_bin(k);
    est.h[static_cast<std::size_t>(k + 26)] = (y1[bin] + y2[bin]) / (2.0 * lk);
  }
  return est;
}

ChannelEstimate smooth_channel(const ChannelEstimate& est, std::size_t window) {
  if (window % 2 == 0 || window == 0)
    throw std::invalid_argument("smooth_channel: window must be odd >= 1");
  if (window == 1) return est;

  // The raw estimate carries a steep linear phase ramp (bulk group delay of
  // the front-end plus the receiver's timing backoff); averaging complex
  // neighbors across that ramp would destroy the magnitude. Estimate the
  // ramp from adjacent-carrier phase increments, derotate, smooth, rerotate.
  dsp::Cplx slope_acc{0.0, 0.0};
  for (int k = -26; k < 26; ++k) {
    if (k == 0 || k == -1) continue;  // skip pairs spanning the DC hole
    slope_acc += est.at_carrier(k + 1) * std::conj(est.at_carrier(k));
  }
  const double slope = std::abs(slope_acc) > 0.0 ? std::arg(slope_acc) : 0.0;

  auto derot = [&](int k) {
    const double ang = -slope * static_cast<double>(k);
    return est.at_carrier(k) * dsp::Cplx{std::cos(ang), std::sin(ang)};
  };

  const int half = static_cast<int>(window / 2);
  ChannelEstimate out;
  for (int k = -26; k <= 26; ++k) {
    if (k == 0) {
      out.h[26] = dsp::Cplx{0.0, 0.0};  // DC carrier unused
      continue;
    }
    dsp::Cplx acc{0.0, 0.0};
    int n = 0;
    for (int d = -half; d <= half; ++d) {
      const int kk = k + d;
      if (kk < -26 || kk > 26 || kk == 0) continue;  // stay inside the band
      acc += derot(kk);
      ++n;
    }
    const double ang = slope * static_cast<double>(k);
    out.h[static_cast<std::size_t>(k + 26)] =
        n > 0 ? (acc / static_cast<double>(n)) *
                    dsp::Cplx{std::cos(ang), std::sin(ang)}
              : est.at_carrier(k);
  }
  return out;
}

void equalize_symbols(const dsp::Cplx* data, const dsp::Cplx* pilots,
                      std::size_t nsym, std::size_t first_symbol_index,
                      const ChannelEstimate& est, bool track_phase,
                      bool track_timing, dsp::Cplx* points, double* weights) {
  // The per-carrier channel tables do not depend on the symbol.
  const auto& pv = pilot_base_values();
  const auto& pc = pilot_carrier_indices();
  const auto& dc = data_carrier_indices();
  const auto hp = est.pilot_carriers();
  const auto hd = est.data_carriers();

  for (std::size_t s = 0; s < nsym; ++s) {
    const dsp::Cplx* __restrict sp = pilots + s * kNumPilots;
    const dsp::Cplx* __restrict sd = data + s * kNumDataCarriers;
    dsp::Cplx* __restrict op = points + s * kNumDataCarriers;
    double* __restrict ow = weights + s * kNumDataCarriers;

    // Common complex gain error from the four pilots (least squares):
    // c = sum_k Y_k conj(H_k X_k) / sum_k |H_k X_k|^2. The phase part
    // tracks residual CFO and LO phase noise; the magnitude part tracks
    // slow AGC gain drift across the frame. A second LS fit over the pilot
    // carrier indices extracts the linear phase slope — sampling-clock /
    // FFT-window drift, which rotates carrier k by slope * k and is
    // invisible to the common-phase term.
    dsp::Cplx derot{1.0, 0.0};
    double slope = 0.0;
    if (track_phase) {
      const double pol = pilot_polarity(first_symbol_index + s);
      dsp::Cplx num{0.0, 0.0};
      double den = 0.0;
      std::array<dsp::Cplx, kNumPilots> ratio{};
      for (std::size_t i = 0; i < kNumPilots; ++i) {
        const dsp::Cplx ref = hp[i] * (pol * pv[i]);
        ratio[i] = sp[i] * std::conj(ref);
        num += ratio[i];
        den += std::norm(ref);
      }
      if (den > 0.0 && std::abs(num) > 0.0) {
        dsp::Cplx c = num / den;
        const double cpe = std::arg(c);
        // Clamp the magnitude correction: the four noisy pilots must not
        // be allowed to scale the whole symbol arbitrarily.
        const double mag = std::clamp(std::abs(c), 0.5, 2.0);
        c = mag * dsp::Cplx{std::cos(cpe), std::sin(cpe)};
        derot = 1.0 / c;

        if (track_timing) {
          // Residual phase per pilot after common derotation, LS fit
          // against the pilot carrier index (indices are symmetric, so the
          // slope is sum(theta k) / sum(k^2)). Working on residuals keeps
          // every angle small and wrap-free for timing errors within the
          // CP.
          double num_s = 0.0, den_s = 0.0;
          for (std::size_t i = 0; i < kNumPilots; ++i) {
            if (std::abs(ratio[i]) <= 0.0) continue;
            const double theta = std::arg(ratio[i] * std::conj(c));
            const double k = static_cast<double>(pc[i]);
            num_s += theta * k;
            den_s += k * k;
          }
          if (den_s > 0.0) slope = num_s / den_s;
        }
      }
    }

    for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
      const double mag2 = std::norm(hd[i]);
      if (mag2 < 1e-18) {
        op[i] = dsp::Cplx{0.0, 0.0};
        ow[i] = 0.0;
        continue;
      }
      dsp::Cplx p = sd[i] * derot / hd[i];
      if (slope != 0.0) {
        const double ang = -slope * static_cast<double>(dc[i]);
        p *= dsp::Cplx{std::cos(ang), std::sin(ang)};
      }
      op[i] = p;
      ow[i] = mag2;  // CSI weighting for the soft demapper
    }
  }
}

}  // namespace wlansim::phy
