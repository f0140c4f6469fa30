#include "phy80211a/interleaver.h"

#include <stdexcept>

namespace wlansim::phy {

Interleaver::Interleaver(std::size_t ncbps, std::size_t nbpsc) {
  if (ncbps == 0 || ncbps % 16 != 0)
    throw std::invalid_argument("Interleaver: NCBPS must be a multiple of 16");
  const std::size_t s = std::max<std::size_t>(nbpsc / 2, 1);
  fwd_.resize(ncbps);
  inv_.resize(ncbps);
  for (std::size_t k = 0; k < ncbps; ++k) {
    // First permutation (Std 802.11a Eq. 15).
    const std::size_t i = (ncbps / 16) * (k % 16) + k / 16;
    // Second permutation (Eq. 16).
    const std::size_t j =
        s * (i / s) + (i + ncbps - (16 * i) / ncbps) % s;
    fwd_[k] = j;
    inv_[j] = k;
  }
}

Interleaver::Interleaver(Rate r)
    : Interleaver(rate_params(r).ncbps, rate_params(r).nbpsc) {}

const Interleaver& interleaver_for(Rate r) {
  // Function-local statics: thread-safe lazy construction, one table per
  // rate for the life of the process.
  switch (r) {
    case Rate::kMbps6: {
      static const Interleaver il(Rate::kMbps6);
      return il;
    }
    case Rate::kMbps9: {
      static const Interleaver il(Rate::kMbps9);
      return il;
    }
    case Rate::kMbps12: {
      static const Interleaver il(Rate::kMbps12);
      return il;
    }
    case Rate::kMbps18: {
      static const Interleaver il(Rate::kMbps18);
      return il;
    }
    case Rate::kMbps24: {
      static const Interleaver il(Rate::kMbps24);
      return il;
    }
    case Rate::kMbps36: {
      static const Interleaver il(Rate::kMbps36);
      return il;
    }
    case Rate::kMbps48: {
      static const Interleaver il(Rate::kMbps48);
      return il;
    }
    case Rate::kMbps54: {
      static const Interleaver il(Rate::kMbps54);
      return il;
    }
  }
  throw std::invalid_argument("interleaver_for: bad rate");
}

}  // namespace wlansim::phy
