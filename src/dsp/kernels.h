// Flat-array compute kernels for the oversampled hot path.
//
// One source, dsp/kernels_impl.inc, defines every kernel, and one
// translation unit, kernels.cpp, compiles it. On x86-64 GCC each kernel is
// declared `target_clones("avx2", "default")`: GCC builds an AVX2 clone
// next to the baseline body, plus a resolver that picks one when the
// program loads. Elsewhere, and under ThreadSanitizer, only the baseline
// body is built.
//
// The AVX2 clone is componentwise-identical to the baseline body. The avx2
// target does not enable FMA, so C++'s default -ffp-contract=fast has no
// fused instruction to contract into, and GCC's complex-multiply idiom
// cannot become vfmaddsub. Vectorization keeps each output's order of
// operations, because every kernel is element-wise or carries its
// reduction order in its contract (fixed 4-lane chains, sequential FIR
// dots). tests/dsp pins every kernel, on the clone the host runs, to
// `kernels::ref::`: the same source compiled at the baseline ISA into the
// test-only reference library. A wide variant that cannot keep this
// exactness is not added: AVX-512F has fused multiply-add instructions of
// its own, so it gets no clone.
//
// Layout rules: kernels take raw pointers + lengths (never vector/span
// references — the optimizer re-loads spans' data pointers through the
// reference on every iteration), and any per-sample parameter stream
// (e.g. the mixer's LO phase) is a separate flat double array (SoA), not
// an array of structs.
#pragma once

#include <cstddef>

#include "dsp/types.h"

namespace wlansim::dsp::kernels {

/// Static impairment parameters for the mixer kernels (see rf::Mixer:
/// the kernels reproduce its per-sample arithmetic exactly, including
/// association order).
struct MixParams {
  double gain = 1.0;       ///< linear conversion gain
  double image_amp = 0.0;  ///< relative image amplitude (0 = perfect IR)
  double iq_eps = 1.0;     ///< Q-rail gain ratio
  double iq_sin = 0.0;     ///< sin(quadrature phase error)
  double iq_cos = 1.0;     ///< cos(quadrature phase error)
  bool iq_active = false;  ///< apply the I/Q imbalance stage
  Cplx dc{0.0, 0.0};       ///< additive DC offset (always added)
};

/// Mix with a per-sample LO phase (radians): lo[i] = exp(j*phase[i]):
/// y = g*x*lo [+ ia*g*conj(x*lo)] [IQ] + dc. In-place safe.
void mix_phase(const Cplx* in, const double* phase, std::size_t n,
               const MixParams& p, Cplx* out);

/// Streaming FIR over a doubled delay line (dsp::FirFilter layout:
/// delay[pos..pos+ntaps) is the window, newest first, taps ascending, split
/// real/imag accumulation chains). Processes m samples, returns the updated
/// write position. In-place safe.
std::size_t fir_stream(const double* taps, std::size_t ntaps, Cplx* delay,
                       std::size_t pos, const Cplx* in, std::size_t m,
                       Cplx* out);

/// fir_stream that evaluates the dot product only every `decim`-th input
/// (phase 0), writing ceil(m/decim) outputs. The delay line is updated for
/// every input, so the kept outputs are bit-identical to fir_stream's.
std::size_t fir_stream_decim(const double* taps, std::size_t ntaps,
                             Cplx* delay, std::size_t pos, const Cplx* in,
                             std::size_t m, std::size_t decim, Cplx* out);

/// Polyphase zero-stuffed interpolation: identical (including the summation
/// order of the nonzero terms) to streaming `taps` over the sequence
/// z[j*os] = scale*src[j], z elsewhere 0, with a zero-initialized filter —
/// skipping only the structurally-zero products. Writes nout samples; src
/// positions beyond nsrc are the zero flush tail.
void fir_interp(const double* taps, std::size_t ntaps, std::size_t os,
                const Cplx* src, std::size_t nsrc, double scale, Cplx* out,
                std::size_t nout);

/// `rows` stacked n-point radix-2 DIT transforms (row-major, contiguous,
/// already bit-reverse permuted) pushed through one twiddle walk. Rows are
/// independent, so the row/stage loop interchange cannot reorder any
/// row's arithmetic: each row's result does not depend on `rows`. The one
/// butterfly loop of every dsp::Fft transform (a single transform is one
/// row).
void fft_butterflies_batch(Cplx* x, std::size_t rows, std::size_t n,
                           const Cplx* twiddle);

/// Complex-tap truncated convolution (the fading tapped-delay line):
/// out[i] = sum_{k<=min(ntaps-1,i)} taps[k]*in[i-k], ascending-k split
/// re/im chains, componentwise identical to the std::complex loop. `out`
/// must not alias `in`.
void cfir_conv(const Cplx* taps, std::size_t ntaps, const Cplx* in,
               std::size_t n, Cplx* out);

/// sum |x[i]|^2 over four fixed stride-4 partial chains, combined as
/// (a0+a1)+(a2+a3). The chain structure is part of the contract.
double power_sum(const Cplx* x, std::size_t n);

/// err += sum |rx-ref|^2, ref_pow += sum |ref|^2 (same 4-lane chains).
void evm_accum(const Cplx* rx, const Cplx* ref, std::size_t n, double* err,
               double* ref_pow);

/// Cross-correlation: *re/*im = sum x[k]*conj(ref[k]) over four fixed
/// stride-4 lane chains combined as (a0+a1)+(a2+a3); the chain structure is
/// part of the contract. Used by the long-training fine-timing search.
void xcorr_accum(const Cplx* x, const Cplx* ref, std::size_t n, double* re,
                 double* im);

/// LLR / weight scaling: x[i] *= s.
void scale(double* x, std::size_t n, double s);

/// Per-rail mid-tread quantizer with rail clamp (the rf::Adc hot loop):
/// each rail v becomes clamp(round(v*inv_step)*step, -fs, fs) where round
/// is std::round (half away from zero), computed arithmetically so the
/// loop stays call-free — bit-identical to the std::round/std::clamp form
/// for every input, including ties, ±0, rails and infinities. In-place
/// safe.
void quantize_clamp(const Cplx* in, std::size_t n, double inv_step,
                    double step, double fs, Cplx* out);

// ---- width-W packet-lane kernels (SoA, sample-major / packet-minor) --------
//
// The batched packet engine (core::PacketBatch) runs W same-config packets
// in lockstep through one flat buffer: sample i occupies one 2*nl-double
// row [re lane 0..nl-1][im lane 0..nl-1]. Lanes never mix arithmetically —
// every lane kernel performs, per lane, one fixed operation sequence (same
// products, same association order, libm calls kept scalar per lane), so
// lane l of a batch is bit-identical to the same packet run alone at width
// 1 by construction. nl == kLaneWidth hits the fixed-width fast
// instantiation; any other nl takes the runtime-width body (same
// arithmetic).

/// Default batch width of the packet-lane kernels: one 8-packet scheduling
/// quantum per wave, and a row of 2*8 doubles == 128 B == two cache lines.
inline constexpr std::size_t kLaneWidth = 8;

/// Scatter an AoS packet into lane `lane` of the SoA buffer.
void lanes_pack(const Cplx* src, std::size_t n, std::size_t nl,
                std::size_t lane, double* soa);

/// Gather lane `lane` back to AoS.
void lanes_unpack(const double* soa, std::size_t n, std::size_t nl,
                  std::size_t lane, Cplx* dst);

/// Gather every `decim`-th sample (phase 0) of lane `lane` — the raw ADC
/// decimation of the direct packet path. Writes ceil(n/decim) samples.
void lanes_unpack_decim(const double* soa, std::size_t n, std::size_t nl,
                        std::size_t lane, std::size_t decim, Cplx* dst);

/// Noise add over all lanes in one row-major pass: row i of lane l < nl
/// gains {s*units[l][2i], s*units[l][2i+1]} — per lane the arithmetic of
/// adding Rng::cgaussian draws (s = sqrt(variance/2)) whose unit normals
/// were drawn in bulk: the AWGN and front-end noise adds.
void lanes_add_scaled_pairs_multi(double* soa, std::size_t n, std::size_t nl,
                                  double s, const double* const* units);

/// Write (s0*units[l][2i])*s1 / (s0*units[l][2i+1])*s1 into row i of every
/// lane l < nl in one pass (the flicker drive: cgaussian(1)*drive
/// decomposes into exactly these two multiplies per rail).
void lanes_write_scaled_pairs_multi(double* soa, std::size_t n,
                                    std::size_t nl, double s0, double s1,
                                    const double* const* units);

/// dst[j] += src[j] over `count` doubles (flicker noise merge).
void lanes_add(double* dst, const double* src, std::size_t count);

/// One biquad section (direct form II transposed, real coefficients) over
/// all 2*nl rails at once. `state` holds 4*nl doubles: s1 row (2*nl) then
/// s2 row (2*nl). Per rail the recurrence is y = b0*x + s1;
/// s1 = (b1*x - a1*y) + s2; s2 = b2*x - a2*y — the exact association of
/// dsp::Biquad::step on std::complex rails.
void lanes_biquad(double* soa, std::size_t n, std::size_t nl, double b0,
                  double b1, double b2, double a1, double a2, double* state);

/// Unity-LO mixer over all lanes in place (the default receiver chain's
/// mixers: no LO offset, no phase noise, phase 0). With lo == (1, 0) every
/// rotation of mix_phase's arithmetic is an exact identity (x*1 - y*0 == x
/// and x*0 + y*1 == y up to the sign of zero), so the four multiplies per
/// rotation are dropped; the image and IQ stages stay.
void lanes_mix_unity_lo(double* soa, std::size_t n, std::size_t nl,
                        const MixParams& p);

/// Rapp p == 2 envelope compression over all lanes in place: per lane
/// n2 = re*re + im*im, r2 = (lin_gain2*n2)*inv_vsat2,
/// g = lin_gain/sqrt(sqrt(1 + r2*r2)), rails *= g — the exact arithmetic
/// of rf::Amplifier's norm-domain fast path.
void lanes_amp_rapp_p2(double* soa, std::size_t n, std::size_t nl,
                       double lin_gain, double lin_gain2, double inv_vsat2);

/// FIR decimation of lane `lane` from zero-initial state: out[t] =
/// sum_k taps[k] * x[t*decim - k] (x == 0 before the buffer), ascending-k
/// split re/im chains — bit-identical to dsp::FirFilter::reset() +
/// process_decim_into on the unpacked lane. Writes ceil(n/decim) samples.
void lanes_fir_decim(const double* soa, std::size_t n, std::size_t nl,
                     std::size_t lane, const double* taps, std::size_t ntaps,
                     std::size_t decim, Cplx* out);

}  // namespace wlansim::dsp::kernels
