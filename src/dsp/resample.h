// Integer-factor resampling with anti-alias/anti-image FIR filtering.
//
// The 802.11a baseband runs at 20 Msps; the RF front-end model runs
// oversampled (typically 4x = 80 Msps) so that adjacent channels at
// +/-20 MHz are representable. These helpers move signals between rates.
#pragma once

#include <cstddef>
#include <span>

#include "dsp/types.h"

namespace wlansim::dsp {

/// Upsample by an integer factor: zero-stuff then image-reject lowpass.
/// Output length is factor * input length; amplitude is preserved.
CVec upsample(std::span<const Cplx> in, std::size_t factor,
              double atten_db = 60.0);

/// Downsample by an integer factor: anti-alias lowpass then decimate.
/// Output length is input length / factor (floor).
CVec downsample(std::span<const Cplx> in, std::size_t factor,
                double atten_db = 60.0);

/// Caller-provided-output variants of the above. `out` is resized to the
/// result length; once its capacity is warm these perform no heap
/// allocation (the taps come from the resampling_taps() cache, the
/// decimator's filter state from a per-thread one, both keyed by
/// (factor, atten_db)). Results are bit-identical to the returning versions.
void upsample_into(std::span<const Cplx> in, std::size_t factor, CVec& out,
                   double atten_db = 60.0);
void downsample_into(std::span<const Cplx> in, std::size_t factor, CVec& out,
                     double atten_db = 60.0);

/// How many leading input samples outputs [0, out_len) of upsample() read:
/// ceil((out_len + delay) / factor), with delay the lowpass group delay.
/// Upsampling only that prefix of a longer input gives the same first
/// out_len samples bit for bit.
std::size_t upsample_inputs_needed(std::size_t out_len, std::size_t factor,
                                   double atten_db = 60.0);

/// The shared anti-alias/anti-image lowpass used by the resamplers for a
/// given factor (process-wide cache; the reference lives for the process).
const RVec& resampling_taps(std::size_t factor, double atten_db = 60.0);

/// Frequency-shift a signal by `freq_norm` cycles/sample (fraction of fs):
/// y[n] = x[n] * exp(j 2 pi freq_norm (n + phase0/2pi...)). `start_phase`
/// is the oscillator phase at the first sample, in radians.
CVec frequency_shift(std::span<const Cplx> in, double freq_norm,
                     double start_phase = 0.0);

/// frequency_shift() applied to `x` in place (same oscillator, same bits).
void frequency_shift_in_place(std::span<Cplx> x, double freq_norm,
                              double start_phase = 0.0);

/// Arbitrary-ratio resampling by cubic (Catmull-Rom) interpolation:
/// output sample k is the input evaluated at t = k / ratio. Used to move
/// between unrelated rates (e.g. the 11 Mchip/s DSSS modem into an
/// 80 Msps RF scene) and to model sampling-clock offset (ratio = 1 + ppm).
/// The input must be adequately oversampled relative to its bandwidth —
/// cubic interpolation adds no anti-alias filtering. Output length is
/// floor((in.size() - 3) * ratio).
CVec fractional_resample(std::span<const Cplx> in, double ratio);

}  // namespace wlansim::dsp
