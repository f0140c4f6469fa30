// Block interleaver over one OFDM symbol's coded bits — the two-permutation
// scheme of IEEE 802.11a-1999, 17.3.5.6: the first permutation spreads
// adjacent coded bits onto nonadjacent subcarriers; the second alternates
// them between more and less significant constellation bits.
#pragma once

#include <cstddef>
#include <vector>

#include "phy80211a/params.h"

namespace wlansim::phy {

/// Precomputed interleaving permutation for one (NCBPS, NBPSC) pair.
class Interleaver {
 public:
  Interleaver(std::size_t ncbps, std::size_t nbpsc);

  /// Convenience: build from a rate's parameters.
  explicit Interleaver(Rate r);

  std::size_t block_size() const { return fwd_.size(); }

  /// fwd()[k] is the post-interleaving position of input bit k.
  const std::vector<std::size_t>& fwd() const { return fwd_; }

  /// inv()[j] is the pre-interleaving position of post-interleaving bit j:
  /// a soft metric produced at demap position j belongs at deinterleaved
  /// position inv()[j]. The transmitter gathers its constellation bits
  /// through it, and the receiver scatters its LLRs through it into
  /// decoder order.
  const std::vector<std::size_t>& inv() const { return inv_; }

 private:
  std::vector<std::size_t> fwd_;
  std::vector<std::size_t> inv_;
};

/// Process-wide per-rate interleaver tables, lazily built on first use —
/// the hot paths share these instead of rebuilding the permutation every
/// packet. The returned reference lives for the process.
const Interleaver& interleaver_for(Rate r);

}  // namespace wlansim::phy
