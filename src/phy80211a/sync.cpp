#include "phy80211a/sync.h"

#include <cfloat>
#include <cmath>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "phy80211a/params.h"
#include "phy80211a/preamble.h"

namespace wlansim::phy {

namespace {
constexpr std::size_t kLag = 16;      // short-preamble periodicity
constexpr std::size_t kCorrLen = 32;  // detection correlation window

// Sliding-window bookkeeping for the fast paths: re-sum the window exactly
// every kRefresh positions so one pass accumulates at most kRefresh slide
// roundings, and whenever a slid power sum falls below the worst-case
// rounding bound for those slides (kDriftSlides * eps * largest term seen
// since the refresh, with slack). The guard matters for all-zero stretches:
// a slid p can drift to a tiny nonzero value where a full re-sum computes an
// exact 0 — and a near-zero denominator would turn that drift into an O(1)
// metric error. After the guard fires, a true zero window re-sums to exactly
// 0.0 and takes the same p <= 0 branch as a full re-sum.
constexpr std::size_t kRefresh = 256;
constexpr double kDriftEps = 64.0 * DBL_EPSILON;
}  // namespace

std::optional<DetectionResult> detect_packet(std::span<const dsp::Cplx> rx,
                                             double threshold) {
  if (rx.size() < kCorrLen + kLag + 1) return std::nullopt;
  // m(n) = |sum r[n+k+16] conj(r[n+k])| / sum |r[n+k+16]|^2; a plateau near
  // 1 marks the short preamble. Require the metric to hold for 32
  // consecutive positions to reject noise spikes. The three window sums
  // (delay correlation c, power p, mean) advance in O(1) per position: the
  // window over n..n+31 becomes the window over n+1..n+32 by subtracting
  // the leaving term and adding the entering one.
  std::size_t run = 0;
  const std::size_t last = rx.size() - kCorrLen - kLag;
  dsp::Cplx c{0.0, 0.0};
  dsp::Cplx mean{0.0, 0.0};
  double p = 0.0;
  double peak_norm = 0.0;  // largest |r|^2 to enter the sums since refresh
  const auto recompute = [&](std::size_t n) {
    c = dsp::Cplx{0.0, 0.0};
    mean = dsp::Cplx{0.0, 0.0};
    p = 0.0;
    peak_norm = 0.0;
    for (std::size_t k = 0; k < kCorrLen; ++k) {
      const dsp::Cplx d = rx[n + k + kLag];
      c += d * std::conj(rx[n + k]);
      const double d2 = std::norm(d);
      p += d2;
      mean += d;
      if (d2 > peak_norm) peak_norm = d2;
    }
  };
  for (std::size_t n = 0; n < last; ++n) {
    if (n % kRefresh == 0) {
      recompute(n);
    } else {
      const dsp::Cplx enter = rx[n + kCorrLen - 1 + kLag];
      const dsp::Cplx leave = rx[n - 1 + kLag];
      c += enter * std::conj(rx[n + kCorrLen - 1]) -
           leave * std::conj(rx[n - 1]);
      const double enter2 = std::norm(enter);
      p += enter2 - std::norm(leave);
      mean += enter - leave;
      if (enter2 > peak_norm) peak_norm = enter2;
      if (p < kDriftEps * static_cast<double>(kCorrLen) * peak_norm)
        recompute(n);
    }
    double m = (p > 0.0) ? std::abs(c) / p : 0.0;
    // A DC offset (LO self-mixing residue) is periodic at every lag and
    // would fire the detector; the short preamble itself carries no DC
    // subcarrier, so reject windows whose energy is mostly at 0 Hz.
    const double dc_frac =
        (p > 0.0) ? std::norm(mean) / (static_cast<double>(kCorrLen) * p) : 0.0;
    if (dc_frac > 0.5) m = 0.0;
    if (m > threshold) {
      ++run;
      if (run >= 32) {
        const std::size_t det = n + 1 - run;
        return DetectionResult{det, coarse_cfo(rx, det)};
      }
    } else {
      run = 0;
    }
  }
  return std::nullopt;
}

double coarse_cfo(std::span<const dsp::Cplx> rx, std::size_t start,
                  std::size_t len) {
  dsp::Cplx c{0.0, 0.0};
  const std::size_t end = std::min(rx.size(), start + len);
  for (std::size_t n = start; n + kLag < end; ++n)
    c += rx[n + kLag] * std::conj(rx[n]);
  // r[n+16] = r[n] e^{j 2 pi f 16}  =>  f = arg(c) / (2 pi 16).
  return std::arg(c) / (dsp::kTwoPi * static_cast<double>(kLag));
}

double fine_cfo(std::span<const dsp::Cplx> rx, std::size_t lts_start) {
  dsp::Cplx c{0.0, 0.0};
  for (std::size_t n = 0; n < kNfft; ++n) {
    const std::size_t i = lts_start + n;
    if (i + kNfft >= rx.size()) break;
    c += rx[i + kNfft] * std::conj(rx[i]);
  }
  return std::arg(c) / (dsp::kTwoPi * static_cast<double>(kNfft));
}

std::optional<std::size_t> locate_long_training(std::span<const dsp::Cplx> rx,
                                                std::size_t search_start,
                                                std::size_t search_end) {
  const dsp::CVec& ref = long_training_symbol();
  if (search_end > rx.size() + 1)
    search_end = rx.size() >= kNfft ? rx.size() - kNfft + 1 : 0;
  if (search_start >= search_end) return std::nullopt;

  // Normalized cross-correlation peaks at the two LTS copies; take the
  // first of the two (they are 64 samples apart). The correlation runs on
  // the dispatched xcorr_accum kernel and the window power slides by
  // recurrence (exact re-sum on the usual refresh/drift schedule).
  double best = 0.0;
  std::size_t best_idx = 0;
  double p = 0.0;
  double peak_norm = 0.0;
  const auto recompute_p = [&](std::size_t n) {
    p = dsp::kernels::power_sum(rx.data() + n, kNfft);
    peak_norm = 0.0;
    for (std::size_t k = 0; k < kNfft; ++k) {
      const double d2 = std::norm(rx[n + k]);
      if (d2 > peak_norm) peak_norm = d2;
    }
  };
  for (std::size_t n = search_start; n < search_end; ++n) {
    if (n + kNfft > rx.size()) break;
    if ((n - search_start) % kRefresh == 0) {
      recompute_p(n);
    } else {
      const double enter2 = std::norm(rx[n + kNfft - 1]);
      p += enter2 - std::norm(rx[n - 1]);
      if (enter2 > peak_norm) peak_norm = enter2;
      if (p < kDriftEps * static_cast<double>(kNfft) * peak_norm)
        recompute_p(n);
    }
    double re = 0.0, im = 0.0;
    dsp::kernels::xcorr_accum(rx.data() + n, ref.data(), kNfft, &re, &im);
    const double m = (p > 0.0) ? (re * re + im * im) / p : 0.0;
    if (m > best) {
      best = m;
      best_idx = n;
    }
  }
  if (best <= 0.0) return std::nullopt;
  // best_idx may be the first or the second LTS copy; disambiguate by
  // testing the correlation 64 samples earlier.
  if (best_idx >= search_start + kNfft) {
    const std::size_t prev = best_idx - kNfft;
    double re = 0.0, im = 0.0;
    dsp::kernels::xcorr_accum(rx.data() + prev, ref.data(), kNfft, &re, &im);
    const double pp = dsp::kernels::power_sum(rx.data() + prev, kNfft);
    const double m = (pp > 0.0) ? (re * re + im * im) / pp : 0.0;
    if (m > 0.5 * best) return prev;
  }
  return best_idx;
}

void correct_cfo(std::span<dsp::Cplx> rx, double cfo_norm) {
  double phase = 0.0;
  const double dphi = -dsp::kTwoPi * cfo_norm;
  for (dsp::Cplx& v : rx) {
    v *= dsp::Cplx{std::cos(phase), std::sin(phase)};
    phase += dphi;
    if (phase > 64.0 * dsp::kPi || phase < -64.0 * dsp::kPi)
      phase = dsp::wrap_phase(phase);
  }
}

}  // namespace wlansim::phy
