// The baseline-ISA build of the kernel bodies (see kernels_reference.h),
// plus the bodies of four kernels that no shipped code calls any more but
// that tests still use as oracles.
#include "kernels_reference.h"

#include <cmath>
#include <cstdint>

#define WLANSIM_KERNEL

namespace wlansim::dsp::kernels::ref {
#include "dsp/kernels_impl.inc"

namespace detail {

template <bool kImage, bool kIq>
void mix_const_lo_t(const Cplx* in, std::size_t n, Cplx lo, const MixParams& p,
                    Cplx* out) {
  const double lr = lo.real(), li = lo.imag();
  for (std::size_t i = 0; i < n; ++i) {
    double yr, yi;
    mix_one<kImage, kIq>(in[i].real(), in[i].imag(), lr, li, p, yr, yi);
    out[i] = Cplx{yr, yi};
  }
}

// Unity-LO specialization: with lo == (1, 0) every rotation is an exact
// identity (x*1 - y*0 == x and x*0 + y*1 == y up to the sign of zero), so
// the four multiplies per rotation are dropped.
template <bool kImage, bool kIq>
void mix_unity_lo_t(const Cplx* in, std::size_t n, const MixParams& p,
                    Cplx* out) {
  for (std::size_t i = 0; i < n; ++i) {
    const double xr = in[i].real(), xi = in[i].imag();
    double yr = p.gain * xr;
    double yi = p.gain * xi;
    if constexpr (kImage) {
      const double iag = p.image_amp * p.gain;
      yr += iag * xr;
      yi += iag * -xi;
    }
    if constexpr (kIq) {
      const double ii = yr;
      const double qq = yi;
      yr = ii + qq * p.iq_sin * p.iq_eps;
      yi = qq * p.iq_eps * p.iq_cos;
    }
    out[i] = Cplx{yr + p.dc.real(), yi + p.dc.imag()};
  }
}

}  // namespace detail

void mix_const_lo(const Cplx* in, std::size_t n, Cplx lo, const MixParams& p,
                  Cplx* out) {
  const bool img = p.image_amp > 0.0;
  if (lo.real() == 1.0 && lo.imag() == 0.0) {
    if (img && p.iq_active)
      detail::mix_unity_lo_t<true, true>(in, n, p, out);
    else if (img)
      detail::mix_unity_lo_t<true, false>(in, n, p, out);
    else if (p.iq_active)
      detail::mix_unity_lo_t<false, true>(in, n, p, out);
    else
      detail::mix_unity_lo_t<false, false>(in, n, p, out);
    return;
  }
  if (img && p.iq_active)
    detail::mix_const_lo_t<true, true>(in, n, lo, p, out);
  else if (img)
    detail::mix_const_lo_t<true, false>(in, n, lo, p, out);
  else if (p.iq_active)
    detail::mix_const_lo_t<false, true>(in, n, lo, p, out);
  else
    detail::mix_const_lo_t<false, false>(in, n, lo, p, out);
}

void add_scaled_pairs(Cplx* a, std::size_t n, double s, const double* units) {
  double* d = reinterpret_cast<double*>(a);
  for (std::size_t i = 0; i < 2 * n; ++i) d[i] += s * units[i];
}

void lanes_add_scaled_pairs(double* soa, std::size_t n, std::size_t nl,
                            std::size_t lane, double s, const double* units) {
  // Row i of `lane` gains {s*units[2i], s*units[2i+1]} — per lane the
  // exact adds of add_scaled_pairs on the unpacked buffer.
  for (std::size_t i = 0; i < n; ++i) {
    soa[i * 2 * nl + lane] += s * units[2 * i];
    soa[i * 2 * nl + nl + lane] += s * units[2 * i + 1];
  }
}

void lanes_write_scaled_pairs(double* soa, std::size_t n, std::size_t nl,
                              std::size_t lane, double s0, double s1,
                              const double* units) {
  // (s0*u)*s1 per rail: the componentwise expansion of
  // Cplx{s0*u0, s0*u1} * drive used by the flicker source's drive fill.
  for (std::size_t i = 0; i < n; ++i) {
    soa[i * 2 * nl + lane] = s0 * units[2 * i] * s1;
    soa[i * 2 * nl + nl + lane] = s0 * units[2 * i + 1] * s1;
  }
}

}  // namespace wlansim::dsp::kernels::ref
