// Decibel / power conversions and small numeric helpers used across the
// RF and PHY libraries. All power quantities are in watts unless the name
// says otherwise; all voltages are normalized to a 1-ohm system, so
// power == mean |x|^2.
#pragma once

#include <span>

#include "dsp/types.h"

namespace wlansim::dsp {

/// Convert a power ratio to decibels.
double to_db(double ratio);

/// Convert decibels to a power ratio.
double from_db(double db);

/// Convert a power in watts to dBm.
double watts_to_dbm(double watts);

/// Convert a power in dBm to watts.
double dbm_to_watts(double dbm);

/// Mean power (mean |x|^2) of a complex signal; 0 for an empty span.
double mean_power(std::span<const Cplx> x);

/// Root-mean-square amplitude of a complex signal.
double rms(std::span<const Cplx> x);

/// Scale a signal in place so its mean power equals `target_watts`.
/// A zero-power input is left untouched.
void set_mean_power(std::span<Cplx> x, double target_watts);

/// Normalized sinc: sin(pi x) / (pi x), with sinc(0) == 1.
double sinc(double x);

/// Smallest power of two >= n (n >= 1).
std::size_t next_pow2(std::size_t n);

/// True if n is a power of two (n >= 1).
bool is_pow2(std::size_t n);

/// Modified Bessel function of the first kind, order zero (series
/// expansion); used by the Kaiser window.
double bessel_i0(double x);

/// Wrap an angle to (-pi, pi].
double wrap_phase(double phi);

}  // namespace wlansim::dsp
