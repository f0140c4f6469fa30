// End-to-end PHY tests: SIGNAL field, synchronization, and full TX -> RX
// loopback over clean and impaired channels.
#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "dsp/rng.h"
#include "phy80211a/measure.h"
#include "phy80211a/receiver.h"
#include "phy80211a/signal_field.h"
#include "phy80211a/sync.h"
#include "phy80211a/transmitter.h"

namespace wlansim::phy {
namespace {

dsp::CVec with_padding(const dsp::CVec& frame, std::size_t lead,
                       std::size_t tail, dsp::Rng* noise_rng = nullptr,
                       double noise_var = 0.0) {
  dsp::CVec out;
  out.reserve(lead + frame.size() + tail);
  out.insert(out.end(), lead, dsp::Cplx{0.0, 0.0});
  out.insert(out.end(), frame.begin(), frame.end());
  out.insert(out.end(), tail, dsp::Cplx{0.0, 0.0});
  if (noise_rng != nullptr && noise_var > 0.0) {
    for (auto& v : out) v += noise_rng->cgaussian(noise_var);
  }
  return out;
}

TEST(SignalField, BitLayoutAndParity) {
  const Bits b = signal_field_bits({Rate::kMbps36, 100});
  ASSERT_EQ(b.size(), 24u);
  // RATE bits for 36 Mbps = 1011.
  EXPECT_EQ(b[0], 1);
  EXPECT_EQ(b[1], 0);
  EXPECT_EQ(b[2], 1);
  EXPECT_EQ(b[3], 1);
  EXPECT_EQ(b[4], 0);  // reserved
  // LENGTH = 100 = 0b000001100100, LSB first.
  EXPECT_EQ(b[5], 0);
  EXPECT_EQ(b[6], 0);
  EXPECT_EQ(b[7], 1);
  EXPECT_EQ(b[8], 0);
  EXPECT_EQ(b[9], 0);
  EXPECT_EQ(b[10], 1);
  EXPECT_EQ(b[11], 1);
  // Tail must be zero.
  for (int i = 18; i < 24; ++i) EXPECT_EQ(b[i], 0);
  // Even parity over the first 18 bits.
  int ones = 0;
  for (int i = 0; i < 18; ++i) ones += b[i];
  EXPECT_EQ(ones % 2, 0);
}

TEST(SignalField, ParseRejectsCorruption) {
  Bits b = signal_field_bits({Rate::kMbps12, 256});
  auto ok = parse_signal_field(b);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->rate, Rate::kMbps12);
  EXPECT_EQ(ok->length, 256u);

  Bits bad = b;
  bad[6] ^= 1;  // flip a LENGTH bit -> parity fails
  EXPECT_FALSE(parse_signal_field(bad).has_value());
}

TEST(SignalField, AllRatesRoundTrip) {
  for (Rate r : {Rate::kMbps6, Rate::kMbps9, Rate::kMbps12, Rate::kMbps18,
                 Rate::kMbps24, Rate::kMbps36, Rate::kMbps48, Rate::kMbps54}) {
    const auto parsed = parse_signal_field(signal_field_bits({r, 1500}));
    ASSERT_TRUE(parsed.has_value()) << rate_name(r);
    EXPECT_EQ(parsed->rate, r);
    EXPECT_EQ(parsed->length, 1500u);
  }
}

TEST(Sync, DetectsFrameNearTrueStart) {
  dsp::Rng rng(1);
  Transmitter tx;
  const dsp::CVec frame = tx.modulate({Rate::kMbps6, random_bytes(50, rng)});
  const std::size_t lead = 500;
  dsp::Rng noise(2);
  const dsp::CVec rx = with_padding(frame, lead, 100, &noise, 1e-4);
  const auto det = detect_packet(rx);
  ASSERT_TRUE(det.has_value());
  EXPECT_NEAR(static_cast<double>(det->detect_index),
              static_cast<double>(lead), 24.0);
}

TEST(Sync, NoDetectionOnPureNoise) {
  dsp::Rng rng(3);
  dsp::CVec noise(4000);
  for (auto& v : noise) v = rng.cgaussian(1.0);
  EXPECT_FALSE(detect_packet(noise).has_value());
}

TEST(Sync, CfoEstimateAccuracy) {
  dsp::Rng rng(4);
  Transmitter tx;
  const dsp::CVec frame = tx.modulate({Rate::kMbps6, random_bytes(40, rng)});
  const double cfo_true = 0.004;  // 80 kHz at 20 Msps
  dsp::CVec shifted = dsp::frequency_shift(frame, cfo_true);
  const dsp::CVec rx = with_padding(shifted, 200, 50);
  const double est = coarse_cfo(rx, 210);
  EXPECT_NEAR(est, cfo_true, 2e-4);
}

TEST(Sync, LocateLongTrainingExact) {
  dsp::Rng rng(5);
  Transmitter tx;
  const dsp::CVec frame = tx.modulate({Rate::kMbps6, random_bytes(40, rng)});
  const std::size_t lead = 333;
  const dsp::CVec rx = with_padding(frame, lead, 50);
  // True LTS (first 64-sample symbol) starts at lead + 160 + 32.
  const auto lts = locate_long_training(rx, lead, lead + 400);
  ASSERT_TRUE(lts.has_value());
  EXPECT_EQ(*lts, lead + 192);
}

class LoopbackAllRates : public ::testing::TestWithParam<Rate> {};

TEST_P(LoopbackAllRates, CleanChannelDecodesPerfectly) {
  dsp::Rng rng(42 + static_cast<int>(GetParam()));
  Transmitter tx;
  const Bytes payload = random_bytes(200, rng);
  const dsp::CVec frame = tx.modulate({GetParam(), payload});
  const dsp::CVec rx = with_padding(frame, 300, 100);

  Receiver receiver;
  const RxResult res = receiver.receive(rx);
  ASSERT_TRUE(res.detected) << rate_name(GetParam());
  ASSERT_TRUE(res.header_ok) << rate_name(GetParam());
  EXPECT_EQ(res.signal.rate, GetParam());
  EXPECT_EQ(res.signal.length, payload.size());
  EXPECT_EQ(res.psdu, payload) << rate_name(GetParam());
}

TEST_P(LoopbackAllRates, ModerateNoiseStillDecodes) {
  dsp::Rng rng(100 + static_cast<int>(GetParam()));
  Transmitter tx({.scrambler_seed = 0x31, .output_power_dbm = 0.0});
  const Bytes payload = random_bytes(100, rng);
  const dsp::CVec frame = tx.modulate({GetParam(), payload});
  // 30 dB SNR: comfortably above the requirement of every rate.
  dsp::Rng noise(7);
  const dsp::CVec rx =
      with_padding(frame, 250, 80, &noise, dsp::dbm_to_watts(0.0) * 1e-3);

  Receiver receiver;
  const RxResult res = receiver.receive(rx);
  ASSERT_TRUE(res.header_ok) << rate_name(GetParam());
  EXPECT_EQ(res.psdu, payload) << rate_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(AllRates, LoopbackAllRates,
                         ::testing::Values(Rate::kMbps6, Rate::kMbps9,
                                           Rate::kMbps12, Rate::kMbps18,
                                           Rate::kMbps24, Rate::kMbps36,
                                           Rate::kMbps48, Rate::kMbps54));

TEST(Loopback, SurvivesCarrierFrequencyOffset) {
  dsp::Rng rng(9);
  Transmitter tx;
  const Bytes payload = random_bytes(150, rng);
  const dsp::CVec frame = tx.modulate({Rate::kMbps24, payload});
  // 802.11a worst case: +/-40 ppm at 5.2 GHz ~ 208 kHz ~ 0.0104 cyc/sample.
  dsp::CVec shifted = dsp::frequency_shift(frame, 0.008);
  dsp::Rng noise(10);
  // Signal power is 1 mW; 1e-6 noise variance puts SNR at 30 dB.
  const dsp::CVec rx = with_padding(shifted, 400, 100, &noise, 1e-6);

  Receiver receiver;
  const RxResult res = receiver.receive(rx);
  ASSERT_TRUE(res.header_ok);
  EXPECT_EQ(res.psdu, payload);
  EXPECT_NEAR(res.cfo_norm, 0.008, 5e-4);
}

TEST(Loopback, SurvivesFlatPhaseRotationAndGain) {
  dsp::Rng rng(11);
  Transmitter tx;
  const Bytes payload = random_bytes(80, rng);
  dsp::CVec frame = tx.modulate({Rate::kMbps54, payload});
  const dsp::Cplx h = 0.4 * dsp::Cplx{std::cos(2.1), std::sin(2.1)};
  for (auto& v : frame) v *= h;
  const dsp::CVec rx = with_padding(frame, 120, 60);

  Receiver receiver;
  const RxResult res = receiver.receive(rx);
  ASSERT_TRUE(res.header_ok);
  EXPECT_EQ(res.psdu, payload);
}

TEST(Loopback, GenieTimingReceiveAt) {
  dsp::Rng rng(12);
  Transmitter tx;
  const Bytes payload = random_bytes(64, rng);
  const dsp::CVec frame = tx.modulate({Rate::kMbps36, payload});
  const dsp::CVec rx = with_padding(frame, 777, 50);

  Receiver receiver;
  const RxResult res = receiver.receive_at(rx, 777);
  ASSERT_TRUE(res.header_ok);
  EXPECT_EQ(res.psdu, payload);
  EXPECT_EQ(res.frame_start, 777u);
}

TEST(Loopback, EvmNearZeroOnCleanChannel) {
  dsp::Rng rng(13);
  Transmitter tx;
  const Frame f{Rate::kMbps54, random_bytes(120, rng)};
  // Reference points from the transmitter itself.
  dsp::CVec ref_points;
  const dsp::CVec frame = tx.modulate(f, &ref_points);
  const dsp::CVec rx = with_padding(frame, 100, 50);

  Receiver receiver;
  const RxResult res = receiver.receive(rx);
  ASSERT_TRUE(res.header_ok);

  ASSERT_EQ(ref_points.size(), res.data_points.size() * kNumDataCarriers);
  // The receiver sees the frame after global power normalization; rescale
  // both to unit average before comparing.
  EvmCounter evm;
  for (std::size_t s = 0; s < res.data_points.size(); ++s) {
    const std::span<const dsp::Cplx> ref(
        ref_points.data() + s * kNumDataCarriers, kNumDataCarriers);
    dsp::CVec rx_pts = res.data_points[s];
    const double g = std::sqrt(dsp::mean_power(ref) / dsp::mean_power(rx_pts));
    for (auto& v : rx_pts) v *= g;
    evm.add(rx_pts, ref);
  }
  EXPECT_LT(evm.evm_percent(), 1.0);
}

TEST(Loopback, EvmTracksSnr) {
  dsp::Rng rng(14);
  Transmitter tx;
  const Frame f{Rate::kMbps54, random_bytes(120, rng)};
  const dsp::CVec frame = tx.modulate(f);

  double last_evm = 0.0;
  for (double nv : {1e-4, 1e-3, 1e-2}) {
    dsp::Rng noise(20);
    const dsp::CVec rx = with_padding(frame, 100, 50, &noise, nv);
    Receiver receiver;
    const RxResult res = receiver.receive(rx);
    if (!res.header_ok) continue;
    EvmCounter evm;
    for (const auto& pts : res.data_points)
      evm.add_decision_directed(pts, Modulation::kQam64);
    EXPECT_GT(evm.evm_rms(), last_evm);
    last_evm = evm.evm_rms();
  }
  EXPECT_GT(last_evm, 0.0);
}

TEST(BerCounter, CountsByteDifferences) {
  BerCounter c;
  const Bytes tx = {0xFF, 0x00, 0xAA};
  const Bytes rx = {0xFE, 0x00, 0xAA};  // one bit differs
  c.add_packet(tx, rx, true);
  EXPECT_EQ(c.bit_errors(), 1u);
  EXPECT_EQ(c.bits_total(), 24u);
  EXPECT_EQ(c.packet_errors(), 1u);
  EXPECT_NEAR(c.ber(), 1.0 / 24.0, 1e-12);
}

TEST(BerCounter, LostPacketCountsHalfBits) {
  BerCounter c;
  c.add_lost_packet(10);
  EXPECT_EQ(c.bits_total(), 80u);
  EXPECT_EQ(c.bit_errors(), 40u);
  EXPECT_NEAR(c.ber(), 0.5, 1e-12);
  EXPECT_NEAR(c.per(), 1.0, 1e-12);
}

}  // namespace
}  // namespace wlansim::phy

namespace wlansim::phy {
namespace {

TEST(Papr, ConstantEnvelopeIsZeroDb) {
  dsp::CVec x(1000, dsp::Cplx{0.7, 0.7});
  EXPECT_NEAR(papr_db(x), 0.0, 1e-9);
}

TEST(Papr, SingleSpikeDominates) {
  dsp::CVec x(100, dsp::Cplx{1.0, 0.0});
  x[50] = {10.0, 0.0};
  // mean = (99 + 100)/100 = 1.99, peak = 100 -> ~17 dB.
  EXPECT_NEAR(papr_db(x), 10.0 * std::log10(100.0 / 1.99), 1e-6);
}

TEST(Papr, CcdfIsMonotoneNonIncreasing) {
  dsp::Rng rng(5);
  dsp::CVec x(20000);
  for (auto& v : x) v = rng.cgaussian(1.0);
  const std::vector<double> th = {0, 2, 4, 6, 8, 10};
  const auto ccdf = papr_ccdf(x, th);
  for (std::size_t i = 1; i < ccdf.size(); ++i)
    EXPECT_LE(ccdf[i], ccdf[i - 1]) << i;
  // Complex Gaussian: P(|x|^2 > mean) = 1/e.
  EXPECT_NEAR(ccdf[0], std::exp(-1.0), 0.02);
}

TEST(Papr, ClippedTransmitterRespectsThreshold) {
  dsp::Rng rng(6);
  Transmitter::Config cfg;
  cfg.clip_papr_db = 5.0;
  Transmitter tx(cfg);
  const dsp::CVec w = tx.modulate({Rate::kMbps54, random_bytes(400, rng)});
  // Post-normalization peaks sit at (or just under) the clip threshold.
  EXPECT_LE(papr_db(w), 5.3);
  // And the clipped frame still decodes.
  dsp::CVec padded(150, dsp::Cplx{0.0, 0.0});
  padded.insert(padded.end(), w.begin(), w.end());
  padded.insert(padded.end(), 80, dsp::Cplx{0.0, 0.0});
  Receiver rx;
  EXPECT_TRUE(rx.receive(padded).header_ok);
}

}  // namespace
}  // namespace wlansim::phy
