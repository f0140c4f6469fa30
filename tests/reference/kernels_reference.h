// The kernel oracle: src/dsp/kernels_impl.inc compiled a second time, at
// the baseline ISA and without clones, into namespace kernels::ref of the
// test-only `wlansim_reference` library. The shipped `kernels::X` runs the
// clone the loader picked for this host; tests/dsp pins it to `ref::X` bit
// for bit. Each declaration's contract is the one documented on the same
// kernel in dsp/kernels.h.
#pragma once

#include <cstddef>

#include "dsp/kernels.h"

namespace wlansim::dsp::kernels::ref {

void mix_phase(const Cplx* in, const double* phase, std::size_t n,
               const MixParams& p, Cplx* out);
std::size_t fir_stream(const double* taps, std::size_t ntaps, Cplx* delay,
                       std::size_t pos, const Cplx* in, std::size_t m,
                       Cplx* out);
std::size_t fir_stream_decim(const double* taps, std::size_t ntaps,
                             Cplx* delay, std::size_t pos, const Cplx* in,
                             std::size_t m, std::size_t decim, Cplx* out);
void fir_interp(const double* taps, std::size_t ntaps, std::size_t os,
                const Cplx* src, std::size_t nsrc, double scale, Cplx* out,
                std::size_t nout);
void fft_butterflies_batch(Cplx* x, std::size_t rows, std::size_t n,
                           const Cplx* twiddle);
void cfir_conv(const Cplx* taps, std::size_t ntaps, const Cplx* in,
               std::size_t n, Cplx* out);
double power_sum(const Cplx* x, std::size_t n);
void evm_accum(const Cplx* rx, const Cplx* ref, std::size_t n, double* err,
               double* ref_pow);
void xcorr_accum(const Cplx* x, const Cplx* ref, std::size_t n, double* re,
                 double* im);
void scale(double* x, std::size_t n, double s);
void quantize_clamp(const Cplx* in, std::size_t n, double inv_step,
                    double step, double fs, Cplx* out);
void lanes_pack(const Cplx* src, std::size_t n, std::size_t nl,
                std::size_t lane, double* soa);
void lanes_unpack(const double* soa, std::size_t n, std::size_t nl,
                  std::size_t lane, Cplx* dst);
void lanes_unpack_decim(const double* soa, std::size_t n, std::size_t nl,
                        std::size_t lane, std::size_t decim, Cplx* dst);
void lanes_add_scaled_pairs_multi(double* soa, std::size_t n, std::size_t nl,
                                  double s, const double* const* units);
void lanes_write_scaled_pairs_multi(double* soa, std::size_t n,
                                    std::size_t nl, double s0, double s1,
                                    const double* const* units);
void lanes_add(double* dst, const double* src, std::size_t count);
void lanes_biquad(double* soa, std::size_t n, std::size_t nl, double b0,
                  double b1, double b2, double a1, double a2, double* state);
void lanes_mix_unity_lo(double* soa, std::size_t n, std::size_t nl,
                        const MixParams& p);
void lanes_amp_rapp_p2(double* soa, std::size_t n, std::size_t nl,
                       double lin_gain, double lin_gain2, double inv_vsat2);
void lanes_fir_decim(const double* soa, std::size_t n, std::size_t nl,
                     std::size_t lane, const double* taps, std::size_t ntaps,
                     std::size_t decim, Cplx* out);

// Oracle-only kernels (tests/reference/kernels_reference.cpp).

/// Mix with a constant LO phasor: y = g*x*lo [+ ia*g*conj(x*lo)] [IQ] + dc,
/// with mix_phase's per-sample arithmetic; lo == (1, 0) takes the
/// unity-LO arithmetic of lanes_mix_unity_lo. In-place safe.
void mix_const_lo(const Cplx* in, std::size_t n, Cplx lo, const MixParams& p,
                  Cplx* out);
/// a[i] += Cplx{s*units[2i], s*units[2i+1]}.
void add_scaled_pairs(Cplx* a, std::size_t n, double s, const double* units);
/// add_scaled_pairs into lane `lane` of an SoA buffer.
void lanes_add_scaled_pairs(double* soa, std::size_t n, std::size_t nl,
                            std::size_t lane, double s, const double* units);
/// lanes_write_scaled_pairs_multi's arithmetic into lane `lane` only.
void lanes_write_scaled_pairs(double* soa, std::size_t n, std::size_t nl,
                              std::size_t lane, double s0, double s1,
                              const double* units);

}  // namespace wlansim::dsp::kernels::ref
