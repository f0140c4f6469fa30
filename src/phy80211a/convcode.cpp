#include "phy80211a/convcode.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <stdexcept>
#include <utility>

namespace wlansim::phy {

namespace {

// Generator polynomials g0 = 133o, g1 = 171o expressed as tap masks over the
// 7-bit window (bit 0 = current input, bit k = input k steps ago):
// g0: 1 + D^2 + D^3 + D^5 + D^6, g1: 1 + D + D^2 + D^3 + D^6.
constexpr std::uint32_t kMaskA = 0x6D;
constexpr std::uint32_t kMaskB = 0x4F;
constexpr std::size_t kNumStates = 64;

// Output pair (A<<1)|B for every 7-bit encoder window — shared by the
// encoder and the Viterbi branch tables.
constexpr std::array<std::uint8_t, 128> kEncOut = [] {
  std::array<std::uint8_t, 128> t{};
  for (std::uint32_t full = 0; full < 128; ++full) {
    const std::uint32_t a = static_cast<std::uint32_t>(std::popcount(full & kMaskA)) & 1u;
    const std::uint32_t b = static_cast<std::uint32_t>(std::popcount(full & kMaskB)) & 1u;
    t[full] = static_cast<std::uint8_t>((a << 1) | b);
  }
  return t;
}();

// Branch-metric selector per butterfly: butterfly j pairs next states
// {2j, 2j+1} with predecessors {j, j+32}. Both generator masks contain bits
// 0 and 6, so flipping the input bit or the oldest state bit negates both
// output parities: all four branch metrics of a butterfly are +/-d with
// d = bm(pred j, input 0), whose sign pattern is kEncOut[j<<1].
constexpr std::array<std::uint8_t, 32> kDeltaIdx = [] {
  std::array<std::uint8_t, 32> t{};
  for (std::uint32_t j = 0; j < 32; ++j) t[j] = kEncOut[j << 1];
  return t;
}();

// Four lanes of GCC's generic vector extension: SSE registers on x86-64,
// NEON on AArch64, split into scalars where the target has neither.
using F4 = float __attribute__((vector_size(16)));
using U4 = std::uint32_t __attribute__((vector_size(16)));

F4 load4(const float* p) {
  F4 v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

void store4(float* p, F4 v) { __builtin_memcpy(p, &v, sizeof v); }

// Per quad q (butterflies 4q..4q+3): the sign bits that turn la and lb
// into lane i's d = (±la) + (±lb), the branch metric kDeltaIdx[4q + i]
// selects. Its bit 1 (output A) flips la, its bit 0 (output B) flips lb.
constexpr std::array<U4, 8> quad_sign_flips(unsigned idx_bit) {
  auto flip = [idx_bit](std::uint32_t j) {
    return ((kDeltaIdx[j] >> idx_bit) & 1u) ? 0x80000000u : 0u;
  };
  std::array<U4, 8> t{};
  for (std::uint32_t q = 0; q < 8; ++q)
    t[q] = U4{flip(4 * q), flip(4 * q + 1), flip(4 * q + 2), flip(4 * q + 3)};
  return t;
}
constexpr std::array<U4, 8> kFlipA = quad_sign_flips(1);
constexpr std::array<U4, 8> kFlipB = quad_sign_flips(0);

// Decision word layout. Lane i of quad q (butterfly j = 4q + i) records
// the win into next state 2j + h at bit 16*(i & 1) + 8*h + q of its 32-bit
// accumulator lane; lanes 0|1 form the word's low half, lanes 2|3 its high
// half, so the 8 quads' masks merge with one OR per quad and two per step.
constexpr std::array<U4, 8> quad_win_bits(std::uint32_t h) {
  std::array<U4, 8> t{};
  for (std::uint32_t q = 0; q < 8; ++q) {
    const std::uint32_t even = 1u << (8 * h + q);
    const std::uint32_t odd = 1u << (16 + 8 * h + q);
    t[q] = U4{even, odd, even, odd};
  }
  return t;
}
constexpr std::array<U4, 8> kWinBit0 = quad_win_bits(0);
constexpr std::array<U4, 8> kWinBit1 = quad_win_bits(1);

// Bit of the decision word that holds next state s's predecessor choice
// (1 = the predecessor with the oldest bit set): s = 2j + h, j = 4q + i.
constexpr std::array<std::uint8_t, kNumStates> kDecisionBit = [] {
  std::array<std::uint8_t, kNumStates> t{};
  for (std::uint32_t s = 0; s < kNumStates; ++s) {
    const std::uint32_t h = s & 1, i = (s >> 1) & 3, q = s >> 3;
    t[s] = static_cast<std::uint8_t>(16 * i + 8 * h + q);
  }
  return t;
}();

// Puncturing patterns over one period of mother-coded bits (A/B interlaced).
// kR23: keep A1 B1 A2, drop B2. kR34: keep A1 B1 A2 B3, drop B2 A3.
constexpr std::array<std::uint8_t, 4> kKeep23 = {1, 1, 1, 0};
constexpr std::array<std::uint8_t, 6> kKeep34 = {1, 1, 1, 0, 0, 1};

std::span<const std::uint8_t> keep_pattern(CodeRate rate) {
  switch (rate) {
    case CodeRate::kR12: return {};
    case CodeRate::kR23: return kKeep23;
    case CodeRate::kR34: return kKeep34;
  }
  throw std::invalid_argument("keep_pattern: bad rate");
}

}  // namespace

Bits convolutional_encode(const Bits& in) {
  Bits out(in.size() * 2);
  std::uint32_t state = 0;  // last six input bits, newest at bit 0
  for (std::size_t i = 0; i < in.size(); ++i) {
    const std::uint32_t full = (state << 1) | (in[i] & 1u);
    const std::uint8_t o = kEncOut[full];
    out[2 * i] = static_cast<std::uint8_t>(o >> 1);
    out[2 * i + 1] = static_cast<std::uint8_t>(o & 1);
    state = full & 0x3F;
  }
  return out;
}

Bits puncture(const Bits& coded, CodeRate rate) {
  const auto keep = keep_pattern(rate);
  if (keep.empty()) return coded;
  if (coded.size() % keep.size() != 0)
    throw std::invalid_argument("puncture: length not a pattern multiple");
  Bits out(punctured_length(coded.size() / 2, rate));
  std::size_t o = 0;
  for (std::size_t i = 0; i < coded.size(); ++i)
    if (keep[i % keep.size()]) out[o++] = coded[i];
  return out;
}

std::size_t punctured_length(std::size_t input_bits, CodeRate rate) {
  const std::size_t coded = 2 * input_bits;
  switch (rate) {
    case CodeRate::kR12: return coded;
    case CodeRate::kR23:
      if (coded % 4 != 0)
        throw std::invalid_argument("punctured_length: bad length for 2/3");
      return coded / 4 * 3;
    case CodeRate::kR34:
      if (coded % 6 != 0)
        throw std::invalid_argument("punctured_length: bad length for 3/4");
      return coded / 6 * 4;
  }
  throw std::invalid_argument("punctured_length: bad rate");
}

SoftBits depuncture(const SoftBits& soft, CodeRate rate) {
  const auto keep = keep_pattern(rate);
  if (keep.empty()) return soft;
  const std::size_t kept_per_period =
      static_cast<std::size_t>(std::count(keep.begin(), keep.end(), 1));
  if (soft.size() % kept_per_period != 0)
    throw std::invalid_argument("depuncture: length not a pattern multiple");
  const std::size_t periods = soft.size() / kept_per_period;
  SoftBits out(periods * keep.size());
  std::size_t src = 0;
  std::size_t o = 0;
  for (std::size_t p = 0; p < periods; ++p) {
    for (std::uint8_t k : keep) {
      out[o++] = k ? soft[src++] : 0.0;
    }
  }
  return out;
}

// Butterfly add-compare-select, four butterflies per vector. Per step
// only four branch-metric values exist (±la±lb); butterfly j reads
// survivors {j, j+32} and writes {2j, 2j+1}. Lane i of quad q is butterfly
// j = 4q + i and performs exactly the scalar butterfly's operations:
// d = (±la) + (±lb) with the signs flipped as bits (IEEE defines a - b as
// a + (-b), so this is the value the scalar form computed), the four sums,
// and the strict `c01 > c00` select that lets the low predecessor (oldest
// state bit 0) win ties, as in the reference decoder. Float path metrics
// with periodic renormalization replace the old -inf sentinels:
// never-reached states carry a large negative value that cannot win a
// comparison against any live survivor, and the bits recorded for them are
// never visited by a traceback that starts in a live state.
Bits viterbi_decode(const SoftBits& soft, bool terminated) {
  if (soft.size() % 2 != 0)
    throw std::invalid_argument("viterbi_decode: need A/B pairs");
  const std::size_t steps = soft.size() / 2;

  constexpr float kUnreachable = -1.0e9f;
  alignas(64) float m0buf[kNumStates];
  alignas(64) float m1buf[kNumStates];
  for (std::size_t s = 0; s < kNumStates; ++s) m0buf[s] = kUnreachable;
  m0buf[0] = 0.0f;  // encoder starts in the zero state
  float* cur = m0buf;
  float* nxt = m1buf;

  // One predecessor-decision word per step (layout: kDecisionBit). The
  // buffer is reused across calls on the same thread; every word is
  // overwritten before traceback.
  thread_local std::vector<std::uint64_t> decisions;
  if (decisions.size() < steps) decisions.resize(steps);

  for (std::size_t t = 0; t < steps; ++t) {
    const float la = static_cast<float>(soft[2 * t]);      // + -> A likely 0
    const float lb = static_cast<float>(soft[2 * t + 1]);  // + -> B likely 0
    const F4 la4 = {la, la, la, la};
    const F4 lb4 = {lb, lb, lb, lb};
    U4 dec = {0, 0, 0, 0};
    for (std::size_t q = 0; q < 8; ++q) {
      const F4 d = (F4)((U4)la4 ^ kFlipA[q]) + (F4)((U4)lb4 ^ kFlipB[q]);
      const F4 ma = load4(cur + 4 * q);
      const F4 mb = load4(cur + 4 * q + 32);
      const F4 c00 = ma + d;  // into 2j   via predecessor j
      const F4 c01 = mb - d;  // into 2j   via predecessor j+32
      const F4 c10 = ma - d;  // into 2j+1 via predecessor j
      const F4 c11 = mb + d;  // into 2j+1 via predecessor j+32
      const F4 n0 = c01 > c00 ? c01 : c00;
      const F4 n1 = c11 > c10 ? c11 : c10;
      // n0 > c00 is exactly c01 > c00 (NaN and signed zeros included);
      // deriving the mask from the select keeps it a single max.
      const U4 w0 = (U4)(n0 > c00);
      const U4 w1 = (U4)(n1 > c10);
      store4(nxt + 8 * q, __builtin_shuffle(n0, n1, U4{0, 4, 1, 5}));
      store4(nxt + 8 * q + 4, __builtin_shuffle(n0, n1, U4{2, 6, 3, 7}));
      dec |= (w0 & kWinBit0[q]) | (w1 & kWinBit1[q]);
    }
    decisions[t] =
        (dec[0] | dec[1]) | (static_cast<std::uint64_t>(dec[2] | dec[3]) << 32);
    std::swap(cur, nxt);
    if ((t & 63u) == 63u) {
      float mx = cur[0];
      for (std::size_t s = 1; s < kNumStates; ++s)
        if (cur[s] > mx) mx = cur[s];
      for (std::size_t s = 0; s < kNumStates; ++s) cur[s] -= mx;
    }
  }

  // Traceback start: the zero state for exactly-terminated streams, the
  // best-metric survivor otherwise.
  Bits out(steps, 0);
  std::uint32_t state = 0;
  if (!terminated) {
    float best = cur[0];
    for (std::uint32_t s = 1; s < kNumStates; ++s) {
      if (cur[s] > best) {
        best = cur[s];
        state = s;
      }
    }
  }
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state & 1);  // input bit = state bit 0
    const std::uint32_t old_bit5 =
        static_cast<std::uint32_t>((decisions[t] >> kDecisionBit[state]) & 1);
    state = (state >> 1) | (old_bit5 << 5);
  }
  return out;
}

Bits viterbi_decode_hard(const Bits& coded, bool terminated) {
  SoftBits soft(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i)
    soft[i] = (coded[i] & 1) ? -1.0 : 1.0;
  return viterbi_decode(soft, terminated);
}

}  // namespace wlansim::phy
