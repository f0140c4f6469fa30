// Test-only reference implementations of the convolutional decoder (see
// viterbi_reference.h). The encoder tables are restated here rather than
// shared with src/, so the references stand on their own.
#include "viterbi_reference.h"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

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

}  // namespace

// The one-butterfly-at-a-time production decoder that the four-wide
// vector ACS replaced, kept verbatim:
//
// Butterfly add-compare-select. Per step only four branch-metric values
// exist (±la±lb); butterfly j reads survivors {j, j+32}, writes {2j, 2j+1}
// with a branchless max-select, and packs the decision bits into the same
// per-step std::uint64_t words the traceback has always consumed. Float
// path metrics with periodic renormalization replace the old -inf
// sentinels: never-reached states carry a large negative value that cannot
// win a comparison against any live survivor, and the bits recorded for
// them are never visited by a traceback that starts in a live state.
// Tie-breaking matches the reference decoder: the strict `greater`
// comparison lets the low predecessor (oldest state bit 0) win ties.
Bits viterbi_decode_scalar_butterfly(const SoftBits& soft, bool terminated) {
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

  // One predecessor-decision word per step: bit s records which of state
  // s's two predecessors won (1 = the one with the oldest bit set). The
  // buffer is reused across calls on the same thread; every word is
  // overwritten before traceback.
  thread_local std::vector<std::uint64_t> decisions;
  if (decisions.size() < steps) decisions.resize(steps);

  for (std::size_t t = 0; t < steps; ++t) {
    const float la = static_cast<float>(soft[2 * t]);      // + -> A likely 0
    const float lb = static_cast<float>(soft[2 * t + 1]);  // + -> B likely 0
    const float bm4[4] = {la + lb, la - lb, -la + lb, -la - lb};
    std::uint64_t dec = 0;
    for (std::uint32_t j = 0; j < 32; ++j) {
      const float d = bm4[kDeltaIdx[j]];
      const float ma = cur[j];
      const float mb = cur[j + 32];
      const float c00 = ma + d;  // into 2j   via predecessor j
      const float c01 = mb - d;  // into 2j   via predecessor j+32
      const float c10 = ma - d;  // into 2j+1 via predecessor j
      const float c11 = mb + d;  // into 2j+1 via predecessor j+32
      const bool w0 = c01 > c00;
      const bool w1 = c11 > c10;
      nxt[2 * j] = w0 ? c01 : c00;
      nxt[2 * j + 1] = w1 ? c11 : c10;
      dec |= (static_cast<std::uint64_t>(w0) << (2 * j)) |
             (static_cast<std::uint64_t>(w1) << (2 * j + 1));
    }
    decisions[t] = dec;
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
        static_cast<std::uint32_t>((decisions[t] >> state) & 1);
    state = (state >> 1) | (old_bit5 << 5);
  }
  return out;
}

// The pre-butterfly decoder, kept verbatim as the semantic reference:
// double metrics, -inf sentinels, explicit per-branch metric evaluation.
Bits viterbi_decode_reference(const SoftBits& soft, bool terminated) {
  if (soft.size() % 2 != 0)
    throw std::invalid_argument("viterbi_decode: need A/B pairs");
  const std::size_t steps = soft.size() / 2;

  // Precompute per-state/per-input expected output pair and next state.
  struct Branch {
    std::uint8_t next;
    std::uint8_t out_a, out_b;
  };
  static const auto kBranches = [] {
    std::array<std::array<Branch, 2>, kNumStates> t{};
    for (std::uint32_t s = 0; s < kNumStates; ++s) {
      for (std::uint32_t b = 0; b < 2; ++b) {
        const std::uint32_t full = (s << 1) | b;
        t[s][b] = {static_cast<std::uint8_t>(full & 0x3F),
                   static_cast<std::uint8_t>(kEncOut[full] >> 1),
                   static_cast<std::uint8_t>(kEncOut[full] & 1)};
      }
    }
    return t;
  }();

  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  std::array<double, kNumStates> metric{};
  metric.fill(kNegInf);
  metric[0] = 0.0;  // encoder starts in the zero state

  std::vector<std::uint64_t> decisions(steps);

  std::array<double, kNumStates> next_metric{};
  for (std::size_t t = 0; t < steps; ++t) {
    next_metric.fill(kNegInf);
    const double la = soft[2 * t];      // positive -> bit A likely 0
    const double lb = soft[2 * t + 1];  // positive -> bit B likely 0
    std::uint64_t dec = 0;
    for (std::uint32_t s = 0; s < kNumStates; ++s) {
      if (metric[s] == kNegInf) continue;
      for (std::uint32_t b = 0; b < 2; ++b) {
        const Branch& br = kBranches[s][b];
        const double m =
            metric[s] + (br.out_a ? -la : la) + (br.out_b ? -lb : lb);
        if (m > next_metric[br.next]) {
          next_metric[br.next] = m;
          // Predecessor of `next` is s; record its oldest bit (bit 5),
          // which is the one bit the two predecessors differ in.
          if (s & 0x20)
            dec |= (std::uint64_t{1} << br.next);
          else
            dec &= ~(std::uint64_t{1} << br.next);
        }
      }
    }
    decisions[t] = dec;
    metric = next_metric;
  }

  Bits out(steps, 0);
  std::uint32_t state = 0;
  if (!terminated) {
    double best = metric[0];
    for (std::uint32_t s = 1; s < kNumStates; ++s) {
      if (metric[s] > best) {
        best = metric[s];
        state = s;
      }
    }
  }
  for (std::size_t t = steps; t-- > 0;) {
    out[t] = static_cast<std::uint8_t>(state & 1);  // input bit = state bit 0
    const std::uint32_t old_bit5 =
        static_cast<std::uint32_t>((decisions[t] >> state) & 1);
    state = (state >> 1) | (old_bit5 << 5);
  }
  return out;
}

}  // namespace wlansim::phy
