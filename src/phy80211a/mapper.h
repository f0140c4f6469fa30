// Gray-coded constellation mapping and max-log soft demapping
// (IEEE 802.11a-1999, 17.3.5.7, Tables 81-84).
//
// All four 802.11a constellations are square with independent I/Q gray
// coding, so mapping and demapping decompose per axis; the soft demapper
// needs at most 8 distance evaluations per axis.
#pragma once

#include <span>

#include "dsp/types.h"
#include "phy80211a/bits.h"
#include "phy80211a/convcode.h"
#include "phy80211a/params.h"

namespace wlansim::phy {

class Mapper {
 public:
  explicit Mapper(Modulation mod);

  Modulation modulation() const { return mod_; }
  std::size_t bits_per_point() const { return nbpsc_; }

  /// Average-unit-energy normalization factor (1, 1/sqrt2, 1/sqrt10,
  /// 1/sqrt42).
  double norm() const { return norm_; }

  /// Map `nbpsc` bits to one constellation point (unit average energy).
  dsp::Cplx map_point(std::span<const std::uint8_t> bits) const;

  /// Map a bit stream (length must be a multiple of bits_per_point()).
  dsp::CVec map(const Bits& bits) const;

  /// Hard-decide one received point back to bits.
  Bits demap_hard_point(dsp::Cplx y) const;

  /// Max-log LLRs for one equalized point. `weight` scales the metrics
  /// (use |H|^2 / N0 for CSI-weighted decoding); positive LLR means the
  /// bit is more likely 0.
  SoftBits demap_soft_point(dsp::Cplx y, double weight) const;

  /// Soft-demap `pts` with per-point weights, scattered through the
  /// deinterleaver: the LLR of bit b of point i, which demap_soft_point
  /// returns, lands at out[deint[i*nbpsc + b]] (deint is the per-rate
  /// Interleaver::inv() table), so the receiver emits decoder-ordered LLRs
  /// with no intermediate copy.
  void demap_soft_deinterleaved(std::span<const dsp::Cplx> pts,
                                std::span<const double> weights,
                                const std::size_t* deint, double* out) const;

  /// Interleave + map gather: point i is mapped from the bits
  /// bits[perm[i*nbpsc + t]], t ascending. With perm = Interleaver::inv()
  /// it maps one symbol block in transmission order without building the
  /// interleaved block.
  void map_permuted(const std::uint8_t* bits, const std::size_t* perm,
                    std::size_t npoints, dsp::Cplx* out) const;

  /// Nearest ideal constellation point (used by EVM measurement).
  dsp::Cplx nearest_point(dsp::Cplx y) const;

 private:
  /// Per-axis helpers: `axis_bits` gray bits -> level index and back.
  double axis_level(std::span<const std::uint8_t> axis_bits) const;
  void demap_axis_soft(double y, double weight, SoftBits* out) const;
  /// Unweighted max-log LLRs for one axis, written to out[0..bits_per_axis).
  void demap_axis_raw(double y, double* out) const;
  void demap_axis_hard(double y, Bits* out) const;

  Modulation mod_;
  std::size_t nbpsc_;
  std::size_t bits_per_axis_;
  double norm_;
  /// levels_[g] = unnormalized axis level for gray code g.
  std::vector<double> levels_;
  /// slevels_[g] = levels_[g] * norm_, the normalized constellation axis —
  /// precomputed so the demap inner loop carries no multiply.
  std::vector<double> slevels_;
};

}  // namespace wlansim::phy
