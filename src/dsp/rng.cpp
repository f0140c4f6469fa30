#include "dsp/rng.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace wlansim::dsp {

namespace {

constexpr std::uint64_t kMatrixA = 0xb5026f5aa96619e9ull;
constexpr std::uint64_t kUpperMask = 0xffffffff80000000ull;
constexpr std::uint64_t kLowerMask = 0x000000007fffffffull;

/// Seed-chain words x[k][from, to) of W chains from x[k][from - 1], the
/// chains interleaved step by step and carried in registers.
template <std::size_t W>
void run_chains(std::uint64_t* const* x, std::size_t from, std::size_t to) {
  std::uint64_t v[W];
  for (std::size_t k = 0; k < W; ++k) v[k] = x[k][from - 1];
  for (std::size_t i = from; i < to; ++i) {
    for (std::size_t k = 0; k < W; ++k) {
      v[k] = 6364136223846793005ull * (v[k] ^ (v[k] >> 62)) + i;
      x[k][i] = v[k];
    }
  }
}

}  // namespace

void Mt19937_64::seed_lockstep(Mt19937_64* const* engines,
                               const std::uint64_t* seeds, std::size_t n) {
  std::uint64_t* x[kLockstep] = {};
  for (std::size_t k = 0; k < n; ++k) {
    engines[k]->seed(seeds[k]);
    x[k] = engines[k]->state_;
  }
  constexpr std::size_t kEnd = kChunk + kM;
  switch (n) {
    case 1: run_chains<1>(x, 1, kEnd); break;
    case 2: run_chains<2>(x, 1, kEnd); break;
    case 3: run_chains<3>(x, 1, kEnd); break;
    case 4: run_chains<4>(x, 1, kEnd); break;
    default: break;
  }
  for (std::size_t k = 0; k < n; ++k) {
    engines[k]->twist_temper(0, kChunk);
    engines[k]->lim_ = kChunk;
  }
}

void Mt19937_64::twist_temper(std::size_t lo, std::size_t hi) {
  std::uint64_t* x = state_;
  // Three ranges so x[i + kM] / x[i + kM - kN] never wraps inside a loop;
  // (-(y & 1)) & kMatrixA is the branchless conditional-xor — the data-
  // dependent branch form mispredicts half the time and dominates the
  // twist. ivdep: the only in-loop dependences are the x[i+1] anti-dep
  // (distance 1, reads precede the store in every vector shape) and the
  // x[i +/- kM] flow deps at distance >= 156, so packed-integer
  // vectorization of these integer ops is always bit-exact.
  const std::size_t a_end = hi < kN - kM ? hi : kN - kM;
#pragma GCC ivdep
  for (std::size_t i = lo; i < a_end; ++i) {
    const std::uint64_t y = (x[i] & kUpperMask) | (x[i + 1] & kLowerMask);
    x[i] = x[i + kM] ^ (y >> 1) ^ ((-(y & 1ull)) & kMatrixA);
  }
  const std::size_t b_end = hi < kN - 1 ? hi : kN - 1;
#pragma GCC ivdep
  for (std::size_t i = lo > kN - kM ? lo : kN - kM; i < b_end; ++i) {
    const std::uint64_t y = (x[i] & kUpperMask) | (x[i + 1] & kLowerMask);
    x[i] = x[i + kM - kN] ^ (y >> 1) ^ ((-(y & 1ull)) & kMatrixA);
  }
  if (hi == kN) {
    const std::uint64_t y = (x[kN - 1] & kUpperMask) | (x[0] & kLowerMask);
    x[kN - 1] = x[kM - 1] ^ (y >> 1) ^ ((-(y & 1ull)) & kMatrixA);
  }
  for (std::size_t i = lo; i < hi; ++i) {
    std::uint64_t z = x[i];
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    out_[i] = z;
  }
}

void Mt19937_64::refill(std::size_t want) {
  if (lim_ == kN) {  // block spent: twist the next one whole
    twist_temper(0, kN);
    idx_ = 0;
    return;
  }
  // The lazy first block: output i < kM reads chain words up to i + kM.
  const std::size_t chain = lim_ == 0 ? 1 : lim_ + kM;
  std::size_t hi = lim_ + (want > kChunk ? want : kChunk);
  if (hi > kLazyEnd) hi = kN;
  std::uint64_t* const x = state_;
  run_chains<1>(&x, chain, hi + kM < kN ? hi + kM : kN);
  twist_temper(lim_, hi);
  lim_ = static_cast<std::uint32_t>(hi);
}

void Mt19937_64::block(std::uint64_t* dst, std::size_t n) {
  while (n > 0) {
    if (idx_ >= lim_) refill(n);
    std::size_t take = lim_ - idx_;
    if (take > n) take = n;
    std::memcpy(dst, out_ + idx_, take * sizeof(std::uint64_t));
    idx_ += static_cast<std::uint32_t>(take);
    dst += take;
    n -= take;
  }
}

double Rng::uniform() {
  return std::uniform_real_distribution<double>(0.0, 1.0)(gen_);
}

double Rng::uniform(double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(gen_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  return std::uniform_int_distribution<std::int64_t>(lo, hi)(gen_);
}

bool Rng::bit() { return (gen_() & 1u) != 0; }

void Rng::bytes(std::uint8_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint8_t>(gen_() & 0xff);
  }
}

void Rng::fill_gaussian(double* dst, std::size_t n) {
  std::size_t i = 0;
  if (saved_available_ && i < n) {
    saved_available_ = false;
    dst[i++] = saved_;
  }
  // Block phase: pull raw draws a batch at a time and split the polar
  // method into three straight-line passes — branch-free canonical
  // conversion, branch-free accept compaction (a rejected pair is simply
  // overwritten in place, so the ~21% rejection rate never touches the
  // branch predictor), then one independent log/sqrt per surviving pair.
  // Capping each batch at the number of pairs still owed means even the
  // worst case (every candidate accepted) never draws past what the
  // classic rejection loop would consume; together with matching every FP
  // operation of that loop, the output stream and the engine position stay
  // bit-identical to it for any call size.
  constexpr std::size_t kPairs = 156;  // 2*kPairs raws == one engine block
  std::uint64_t raw[2 * kPairs];
  double cand[2 * kPairs], xs[kPairs], ys[kPairs], r2s[kPairs];
  while (n - i >= 2) {
    const std::size_t need = (n - i) / 2;
    const std::size_t p = need < kPairs ? need : kPairs;
    gen_.block(raw, 2 * p);
    for (std::size_t k = 0; k < 2 * p; ++k) {
      cand[k] = 2.0 * to_canonical_(raw[k]) - 1.0;
    }
    std::size_t a = 0;
    for (std::size_t j = 0; j < p; ++j) {
      const double x = cand[2 * j];
      const double y = cand[2 * j + 1];
      const double r2 = x * x + y * y;
      xs[a] = x;
      ys[a] = y;
      r2s[a] = r2;
      a += static_cast<std::size_t>((r2 <= 1.0) & (r2 != 0.0));
    }
    for (std::size_t j = 0; j < a; ++j) {
      const double mult = std::sqrt(-2.0 * std::log(r2s[j]) / r2s[j]);
      dst[i++] = ys[j] * mult;
      dst[i++] = xs[j] * mult;
    }
  }
  if (i < n) {
    dst[i] = gaussian();  // banks the leftover half-pair in saved_
  }
}

void Rng::seed_lockstep(Rng* rngs, const std::uint64_t* seeds,
                       std::size_t n) {
  if (n > Mt19937_64::kLockstep)
    throw std::invalid_argument("Rng::seed_lockstep: too many generators");
  Mt19937_64* engines[Mt19937_64::kLockstep] = {};
  for (std::size_t k = 0; k < n; ++k) {
    rngs[k].saved_available_ = false;
    engines[k] = &rngs[k].gen_;
  }
  Mt19937_64::seed_lockstep(engines, seeds, n);
}

Rng Rng::fork() {
  // Mix the next raw draw so sibling forks are decorrelated.
  const std::uint64_t s = gen_() ^ 0x9e3779b97f4a7c15ull;
  return Rng(s);
}

}  // namespace wlansim::dsp
