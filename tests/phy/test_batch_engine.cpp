// Equivalence suite for the batched OFDM symbol engine: the one-pass SoA
// TX/RX pipeline (batch FFTs, fused interleave+map gather, demap scattered
// straight into decoder order), which runs every symbol, SIGNAL included,
// must be bit-identical to the symbol-at-a-time references in
// tests/reference/phy_reference and to the per-point mapper, for every
// rate and under every impairment the receiver handles.
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "channel/fading.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "phy80211a/interleaver.h"
#include "phy80211a/mapper.h"
#include "phy80211a/receiver.h"
#include "phy80211a/transmitter.h"
#include "phy_reference.h"

namespace wlansim::phy {
namespace {

// ---------------------------------------------------------------------------
// Interleaver tables vs the standard's formula (Std 802.11a 17.3.5.6).

TEST(BatchEngine, InterleaverTablesMatchStandardFormula) {
  for (std::size_t ri = 0; ri < kNumRates; ++ri) {
    const Rate r = static_cast<Rate>(ri);
    const RateParams& p = rate_params(r);
    const Interleaver& il = interleaver_for(r);
    ASSERT_EQ(il.block_size(), p.ncbps) << rate_name(r);

    const std::size_t s = std::max<std::size_t>(p.nbpsc / 2, 1);
    for (std::size_t k = 0; k < p.ncbps; ++k) {
      // Eq. 15: first permutation k -> i.
      const std::size_t i = (p.ncbps / 16) * (k % 16) + k / 16;
      // Eq. 16: second permutation i -> j.
      const std::size_t j =
          s * (i / s) + (i + p.ncbps - (16 * i) / p.ncbps) % s;
      ASSERT_EQ(il.fwd()[k], j) << rate_name(r) << " k=" << k;
      ASSERT_EQ(il.inv()[j], k) << rate_name(r) << " j=" << j;
    }

    // The process-wide table must be address-stable: batch RX captures
    // raw pointers into it.
    EXPECT_EQ(&interleaver_for(r), &il) << rate_name(r);
  }
}

// ---------------------------------------------------------------------------
// Mapper batch helpers vs the per-point entries.

TEST(BatchEngine, MapperBatchHelpersMatchReference) {
  dsp::Rng rng(41);
  // One rate per modulation covers all four demap tables.
  for (const Rate r : {Rate::kMbps6, Rate::kMbps12, Rate::kMbps24,
                       Rate::kMbps54}) {
    const RateParams& p = rate_params(r);
    const Mapper mapper(p.modulation);
    const Interleaver& il = interleaver_for(r);

    Bits bits(p.ncbps);
    for (auto& b : bits) b = rng.uniform() < 0.5 ? 0 : 1;

    // Fused interleave+map gather == map_point over the fwd() scatter.
    Bits inter(p.ncbps);
    for (std::size_t k = 0; k < p.ncbps; ++k) inter[il.fwd()[k]] = bits[k];
    dsp::CVec want_pts(kNumDataCarriers);
    for (std::size_t i = 0; i < kNumDataCarriers; ++i)
      want_pts[i] = mapper.map_point(
          std::span<const std::uint8_t>(inter).subspan(i * p.nbpsc, p.nbpsc));
    dsp::CVec got_pts(kNumDataCarriers);
    mapper.map_permuted(bits.data(), il.inv().data(), kNumDataCarriers,
                        got_pts.data());
    for (std::size_t i = 0; i < got_pts.size(); ++i) {
      EXPECT_EQ(got_pts[i].real(), want_pts[i].real()) << rate_name(r) << i;
      EXPECT_EQ(got_pts[i].imag(), want_pts[i].imag()) << rate_name(r) << i;
    }

    // Noisy received points with per-point CSI weights.
    dsp::CVec pts(kNumDataCarriers);
    std::vector<double> weights(kNumDataCarriers);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      pts[i] = want_pts[i] + rng.cgaussian(0.05);
      weights[i] = 0.25 + rng.uniform();
    }

    // Fused demap+deinterleave == demap_soft_point scattered through inv().
    SoftBits want_deint(p.ncbps);
    for (std::size_t i = 0; i < kNumDataCarriers; ++i) {
      const SoftBits llr = mapper.demap_soft_point(pts[i], weights[i]);
      ASSERT_EQ(llr.size(), p.nbpsc);
      for (std::size_t b = 0; b < p.nbpsc; ++b)
        want_deint[il.inv()[i * p.nbpsc + b]] = llr[b];
    }
    SoftBits got_deint(p.ncbps);
    mapper.demap_soft_deinterleaved(pts, weights, il.inv().data(),
                                    got_deint.data());
    for (std::size_t j = 0; j < p.ncbps; ++j)
      EXPECT_EQ(got_deint[j], want_deint[j]) << rate_name(r) << " j=" << j;
  }
}

// ---------------------------------------------------------------------------
// Transmitter: batched modulate vs the symbol-at-a-time reference.

/// PSDU size putting `nsym` DATA symbols on the air at rate r (clamped to
/// the legal 1..4095 range).
std::size_t psdu_bytes_for_symbols(Rate r, std::size_t nsym) {
  const RateParams& p = rate_params(r);
  const std::size_t bits = nsym * p.ndbps;
  const std::size_t overhead = kServiceBits + kTailBits;
  if (bits <= overhead + 8) return 1;
  return std::min<std::size_t>((bits - overhead) / 8, 4095);
}

void expect_same_waveform(const dsp::CVec& a, const dsp::CVec& b,
                          const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].real(), b[i].real()) << what << " i=" << i;
    ASSERT_EQ(a[i].imag(), b[i].imag()) << what << " i=" << i;
  }
}

TEST(BatchEngine, TxModulateMatchesReferenceAllRates) {
  dsp::Rng rng(42);
  for (std::size_t ri = 0; ri < kNumRates; ++ri) {
    const Rate r = static_cast<Rate>(ri);
    for (const std::size_t bytes :
         {std::size_t{1}, psdu_bytes_for_symbols(r, 7), std::size_t{4095}}) {
      const Frame f{r, random_bytes(bytes, rng)};
      expect_same_waveform(Transmitter().modulate(f), ref::modulate({}, f),
                           rate_name(r).data());
    }
  }
}

TEST(BatchEngine, TxModulateMatchesReferenceWithWindowAndClipping) {
  dsp::Rng rng(43);
  for (Transmitter::Config cfg :
       {Transmitter::Config{.window_overlap = 6},
        Transmitter::Config{.clip_papr_db = 5.0},
        Transmitter::Config{.scrambler_seed = 0x31,
                            .output_power_dbm = -10.0,
                            .window_overlap = 4,
                            .clip_papr_db = 6.0}}) {
    const Frame f{Rate::kMbps36, random_bytes(300, rng)};
    expect_same_waveform(Transmitter(cfg).modulate(f), ref::modulate(cfg, f),
                         "cfg");
  }
}

// ---------------------------------------------------------------------------
// Receiver: the batch path vs the symbol-at-a-time reference receiver.

void expect_same_rx_result(const RxResult& a, const RxResult& b) {
  ASSERT_EQ(a.detected, b.detected);
  ASSERT_EQ(a.header_ok, b.header_ok);
  EXPECT_EQ(a.cfo_norm, b.cfo_norm);
  EXPECT_EQ(a.frame_start, b.frame_start);
  if (a.header_ok) {
    EXPECT_EQ(a.signal.rate, b.signal.rate);
    EXPECT_EQ(a.signal.length, b.signal.length);
  }
  EXPECT_EQ(a.psdu, b.psdu);
  ASSERT_EQ(a.data_points.size(), b.data_points.size());
  for (std::size_t s = 0; s < a.data_points.size(); ++s) {
    ASSERT_EQ(a.data_points[s].size(), b.data_points[s].size()) << s;
    for (std::size_t i = 0; i < a.data_points[s].size(); ++i) {
      ASSERT_EQ(a.data_points[s][i].real(), b.data_points[s][i].real())
          << "sym=" << s << " i=" << i;
      ASSERT_EQ(a.data_points[s][i].imag(), b.data_points[s][i].imag())
          << "sym=" << s << " i=" << i;
    }
  }
}

dsp::CVec padded(const dsp::CVec& frame, std::size_t lead, std::size_t tail) {
  dsp::CVec out(lead, dsp::Cplx{0.0, 0.0});
  out.insert(out.end(), frame.begin(), frame.end());
  out.insert(out.end(), tail, dsp::Cplx{0.0, 0.0});
  return out;
}

void expect_batched_matches_reference(const dsp::CVec& rx,
                                      const Receiver::Config& cfg) {
  expect_same_rx_result(Receiver(cfg).receive(rx), ref::receive(cfg, rx));
}

TEST(BatchEngine, RxMatchesReferenceAllRatesAwgn) {
  dsp::Rng rng(44);
  for (std::size_t ri = 0; ri < kNumRates; ++ri) {
    const Rate r = static_cast<Rate>(ri);
    Transmitter tx;
    dsp::CVec rx = padded(tx.modulate({r, random_bytes(200, rng)}), 250, 80);
    dsp::Rng noise(50 + ri);
    for (auto& v : rx) v += noise.cgaussian(1e-5);
    expect_batched_matches_reference(rx, {});
  }
}

TEST(BatchEngine, RxMatchesReferenceTrackingModes) {
  dsp::Rng rng(45);
  Transmitter tx;
  const dsp::CVec frame = tx.modulate({Rate::kMbps24, random_bytes(400, rng)});
  // A CFO residual makes the phase/timing trackers actually work.
  dsp::CVec rx = padded(dsp::frequency_shift(frame, 0.004), 300, 80);
  dsp::Rng noise(46);
  for (auto& v : rx) v += noise.cgaussian(1e-5);
  for (const bool phase : {false, true}) {
    for (const bool timing : {false, true}) {
      expect_batched_matches_reference(
          rx, {.track_phase = phase, .track_timing = timing});
    }
  }
}

TEST(BatchEngine, RxMatchesReferenceFadingAndInterferer) {
  dsp::Rng rng(47);
  Transmitter tx;
  const dsp::CVec frame = tx.modulate({Rate::kMbps12, random_bytes(250, rng)});

  channel::FadingConfig fcfg;
  fcfg.rms_delay_spread_s = 50e-9;
  dsp::Rng chan_rng(48);
  const channel::MultipathChannel chan(fcfg, chan_rng);
  dsp::CVec rx = padded(chan.apply(padded(frame, 300, 100)), 0, 0);

  // Weak in-band CW interferer plus thermal noise.
  dsp::Rng noise(49);
  const double amp = 3e-3;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double ang = dsp::kTwoPi * 0.11 * static_cast<double>(i);
    rx[i] += amp * dsp::Cplx{std::cos(ang), std::sin(ang)};
    rx[i] += noise.cgaussian(1e-5);
  }
  expect_batched_matches_reference(rx, {});
  expect_batched_matches_reference(rx, {.chanest_smoothing = 3});
}

TEST(BatchEngine, RxMatchesReferencePayloadExtremes) {
  dsp::Rng rng(51);
  // Smallest legal PSDU (fewest DATA symbols) and the largest (4095 bytes).
  for (const auto& [rate, bytes] :
       {std::pair{Rate::kMbps6, std::size_t{1}},
        std::pair{Rate::kMbps54, std::size_t{4095}}}) {
    Transmitter tx;
    const dsp::CVec rx =
        padded(tx.modulate({rate, random_bytes(bytes, rng)}), 200, 60);
    expect_batched_matches_reference(rx, {});
  }
}

TEST(BatchEngine, RxMatchesReferenceOnTruncatedFrame) {
  dsp::Rng rng(52);
  Transmitter tx;
  const dsp::CVec frame = tx.modulate({Rate::kMbps6, random_bytes(120, rng)});
  // Cut the frame mid-DATA: both paths must bail at the same symbol with
  // header_ok=false and identical partial data_points.
  const std::size_t cut = kPreambleLen + kSymbolLen + 5 * kSymbolLen + 11;
  ASSERT_LT(cut, frame.size());
  const dsp::CVec rx =
      padded(dsp::CVec(frame.begin(), frame.begin() + cut), 220, 0);

  const RxResult a = Receiver().receive(rx);
  const RxResult b = ref::receive({}, rx);
  EXPECT_FALSE(a.header_ok);
  EXPECT_TRUE(a.detected);
  expect_same_rx_result(a, b);
}

}  // namespace
}  // namespace wlansim::phy
