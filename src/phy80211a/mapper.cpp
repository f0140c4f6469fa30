#include "phy80211a/mapper.h"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace wlansim::phy {

namespace {

/// Axis levels indexed by the gray-coded bit group (b_first..b_last read as
/// an integer with the first bit as MSB), per Std 802.11a Tables 81-84.
std::vector<double> gray_levels(std::size_t bits_per_axis) {
  switch (bits_per_axis) {
    case 1: return {-1.0, 1.0};                    // 0 -> -1, 1 -> +1
    case 2: return {-3.0, -1.0, 3.0, 1.0};          // 00,01,10,11
    case 3: return {-7.0, -5.0, -1.0, -3.0, 7.0, 5.0, 1.0, 3.0};
    default: throw std::invalid_argument("gray_levels: bad width");
  }
}

double norm_factor(Modulation m) {
  switch (m) {
    case Modulation::kBpsk: return 1.0;
    case Modulation::kQpsk: return 1.0 / std::sqrt(2.0);
    case Modulation::kQam16: return 1.0 / std::sqrt(10.0);
    case Modulation::kQam64: return 1.0 / std::sqrt(42.0);
  }
  throw std::invalid_argument("norm_factor: bad modulation");
}

}  // namespace

Mapper::Mapper(Modulation mod)
    : mod_(mod),
      nbpsc_(bits_per_symbol(mod)),
      bits_per_axis_(mod == Modulation::kBpsk ? 1 : nbpsc_ / 2),
      norm_(norm_factor(mod)),
      levels_(gray_levels(bits_per_axis_)) {
  slevels_.resize(levels_.size());
  for (std::size_t g = 0; g < levels_.size(); ++g)
    slevels_[g] = levels_[g] * norm_;
}

double Mapper::axis_level(std::span<const std::uint8_t> axis_bits) const {
  std::size_t g = 0;
  for (std::uint8_t b : axis_bits) g = (g << 1) | (b & 1);
  return levels_[g];
}

dsp::Cplx Mapper::map_point(std::span<const std::uint8_t> bits) const {
  if (bits.size() != nbpsc_)
    throw std::invalid_argument("Mapper: wrong number of bits");
  const double i = axis_level(bits.first(bits_per_axis_));
  const double q = (mod_ == Modulation::kBpsk)
                       ? 0.0
                       : axis_level(bits.subspan(bits_per_axis_));
  return norm_ * dsp::Cplx{i, q};
}

dsp::CVec Mapper::map(const Bits& bits) const {
  if (bits.size() % nbpsc_ != 0)
    throw std::invalid_argument("Mapper: bit count not a multiple of NBPSC");
  dsp::CVec out;
  out.reserve(bits.size() / nbpsc_);
  for (std::size_t i = 0; i < bits.size(); i += nbpsc_)
    out.push_back(map_point(std::span<const std::uint8_t>(bits).subspan(i, nbpsc_)));
  return out;
}

void Mapper::demap_axis_hard(double y, Bits* out) const {
  std::size_t best = 0;
  double bestd = std::numeric_limits<double>::max();
  for (std::size_t g = 0; g < levels_.size(); ++g) {
    const double d = std::abs(y - levels_[g] * norm_);
    if (d < bestd) {
      bestd = d;
      best = g;
    }
  }
  for (std::size_t i = 0; i < bits_per_axis_; ++i)
    out->push_back(
        static_cast<std::uint8_t>((best >> (bits_per_axis_ - 1 - i)) & 1));
}

Bits Mapper::demap_hard_point(dsp::Cplx y) const {
  Bits out;
  out.reserve(nbpsc_);
  demap_axis_hard(y.real(), &out);
  if (mod_ != Modulation::kBpsk) demap_axis_hard(y.imag(), &out);
  return out;
}

void Mapper::demap_axis_raw(double y, double* out) const {
  // Max-log: LLR_i = min_{s:bit=1} (y-s)^2 - min_{s:bit=0} (y-s)^2;
  // positive favors bit 0. The caller applies the CSI weight.
  //
  // Table-driven form: the squared distances to the slevels_ table are
  // computed once and shared across the axis bits (the per-bit loop used
  // to recompute all of them). d[g] is the same expression as before, and
  // each bit's min scans g in the same ascending order with the same
  // strict < test, so the selected d0/d1 — and the LLRs — are unchanged
  // bit-for-bit.
  double d[8];
  const std::size_t nlev = levels_.size();
  const double* __restrict sl = slevels_.data();
  for (std::size_t g = 0; g < nlev; ++g) {
    const double diff = y - sl[g];
    d[g] = diff * diff;
  }
  for (std::size_t i = 0; i < bits_per_axis_; ++i) {
    double d0 = std::numeric_limits<double>::max();
    double d1 = std::numeric_limits<double>::max();
    const std::size_t shift = bits_per_axis_ - 1 - i;
    for (std::size_t g = 0; g < nlev; ++g) {
      const bool bit = ((g >> shift) & 1) != 0;
      if (bit) {
        if (d[g] < d1) d1 = d[g];
      } else {
        if (d[g] < d0) d0 = d[g];
      }
    }
    out[i] = d1 - d0;
  }
}

void Mapper::demap_axis_soft(double y, double weight, SoftBits* out) const {
  // w * (d1 - d0) per bit, through the shared-distance raw demap.
  double raw[3];
  demap_axis_raw(y, raw);
  for (std::size_t i = 0; i < bits_per_axis_; ++i)
    out->push_back(weight * raw[i]);
}

SoftBits Mapper::demap_soft_point(dsp::Cplx y, double weight) const {
  SoftBits out;
  out.reserve(nbpsc_);
  demap_axis_soft(y.real(), weight, &out);
  if (mod_ != Modulation::kBpsk) demap_axis_soft(y.imag(), weight, &out);
  return out;
}

void Mapper::demap_soft_deinterleaved(std::span<const dsp::Cplx> pts,
                                      std::span<const double> weights,
                                      const std::size_t* deint,
                                      double* out) const {
  if (pts.size() != weights.size())
    throw std::invalid_argument("Mapper: weights size mismatch");
  double raw[6];
  for (std::size_t i = 0; i < pts.size(); ++i) {
    demap_axis_raw(pts[i].real(), raw);
    if (mod_ != Modulation::kBpsk)
      demap_axis_raw(pts[i].imag(), raw + bits_per_axis_);
    const double w = weights[i];
    const std::size_t* __restrict dj = deint + i * nbpsc_;
    for (std::size_t b = 0; b < nbpsc_; ++b) out[dj[b]] = raw[b] * w;
  }
}

void Mapper::map_permuted(const std::uint8_t* bits, const std::size_t* perm,
                          std::size_t npoints, dsp::Cplx* out) const {
  const std::size_t bpa = bits_per_axis_;
  for (std::size_t p = 0; p < npoints; ++p) {
    const std::size_t* __restrict pp = perm + p * nbpsc_;
    std::size_t gi = 0;
    for (std::size_t t = 0; t < bpa; ++t)
      gi = (gi << 1) | (bits[pp[t]] & 1);
    const double iv = levels_[gi];
    double qv = 0.0;
    if (mod_ != Modulation::kBpsk) {
      std::size_t gq = 0;
      for (std::size_t t = 0; t < bpa; ++t)
        gq = (gq << 1) | (bits[pp[bpa + t]] & 1);
      qv = levels_[gq];
    }
    out[p] = norm_ * dsp::Cplx{iv, qv};
  }
}

dsp::Cplx Mapper::nearest_point(dsp::Cplx y) const {
  const Bits b = demap_hard_point(y);
  return map_point(b);
}

}  // namespace wlansim::phy
