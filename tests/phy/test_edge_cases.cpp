// Edge-case and robustness tests: extreme payload sizes, truncated
// buffers, corrupted streams — the receiver must degrade gracefully,
// never crash or return phantom successes.
#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/rng.h"
#include "phy80211a/receiver.h"
#include "phy80211a/transmitter.h"

namespace wlansim::phy {
namespace {

dsp::CVec pad(const dsp::CVec& frame, std::size_t lead, std::size_t tail) {
  dsp::CVec out(lead, dsp::Cplx{0.0, 0.0});
  out.insert(out.end(), frame.begin(), frame.end());
  out.insert(out.end(), tail, dsp::Cplx{0.0, 0.0});
  return out;
}

class PayloadSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSizes, RoundTripAtVariousSizes) {
  dsp::Rng rng(1000 + static_cast<int>(GetParam()));
  Transmitter tx;
  const Bytes payload = random_bytes(GetParam(), rng);
  const dsp::CVec rx_in = pad(tx.modulate({Rate::kMbps54, payload}), 200, 80);
  Receiver rx;
  const RxResult res = rx.receive(rx_in);
  ASSERT_TRUE(res.header_ok) << GetParam();
  EXPECT_EQ(res.psdu, payload);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizes,
                         ::testing::Values(1, 2, 3, 17, 255, 1500, 4095));

TEST(EdgeCases, TransmitterRejectsInvalidPayloads) {
  Transmitter tx;
  EXPECT_THROW(tx.modulate({Rate::kMbps6, Bytes{}}), std::invalid_argument);
  EXPECT_THROW(tx.modulate({Rate::kMbps6, Bytes(4096, 0)}),
               std::invalid_argument);
}

TEST(EdgeCases, ReceiverHandlesEmptyAndTinyBuffers) {
  Receiver rx;
  EXPECT_FALSE(rx.receive(dsp::CVec{}).detected);
  EXPECT_FALSE(rx.receive(dsp::CVec(10, dsp::Cplx{1.0, 0.0})).detected);
  EXPECT_FALSE(rx.receive(dsp::CVec(100, dsp::Cplx{0.0, 0.0})).detected);
  // A genie frame start at or past the end of the buffer.
  const dsp::CVec tiny(100, dsp::Cplx{0.0, 0.0});
  for (const std::size_t start : {99u, 100u, 101u, 5000u})
    EXPECT_FALSE(rx.receive_at(tiny, start).detected) << start;
}

TEST(EdgeCases, TruncatedFrameFailsCleanly) {
  dsp::Rng rng(7);
  Transmitter tx;
  const Bytes payload = random_bytes(500, rng);
  dsp::CVec frame = tx.modulate({Rate::kMbps6, payload});
  // Cut the frame in the middle of the data field.
  frame.resize(frame.size() / 2);
  const dsp::CVec rx_in = pad(frame, 150, 20);
  Receiver rx;
  const RxResult res = rx.receive(rx_in);
  EXPECT_TRUE(res.detected);
  EXPECT_FALSE(res.header_ok);  // truncation detected, no phantom payload
}

TEST(EdgeCases, HeaderOnlyBufferFailsCleanly) {
  dsp::Rng rng(8);
  Transmitter tx;
  dsp::CVec frame = tx.modulate({Rate::kMbps6, random_bytes(100, rng)});
  frame.resize(kPreambleLen + kSymbolLen);  // preamble + SIGNAL only
  Receiver rx;
  const RxResult res = rx.receive(pad(frame, 100, 0));
  EXPECT_FALSE(res.header_ok);
}

TEST(EdgeCases, GarbageAfterValidPreambleFailsParity) {
  dsp::Rng rng(9);
  Transmitter tx;
  dsp::CVec frame = tx.modulate({Rate::kMbps24, random_bytes(60, rng)});
  // Replace everything after the preamble with noise of similar power.
  const double p = dsp::mean_power(frame);
  for (std::size_t i = kPreambleLen; i < frame.size(); ++i)
    frame[i] = rng.cgaussian(p);
  Receiver rx;
  const RxResult res = rx.receive(pad(frame, 120, 40));
  // SIGNAL parity + RATE validity make a phantom header very unlikely; if
  // one sneaks through, the decoded payload must not be reported as clean.
  if (res.header_ok) {
    EXPECT_NE(res.psdu.size(), 0u);
  }
  SUCCEED();
}

TEST(EdgeCases, BackToBackFramesFirstOneDecoded) {
  dsp::Rng rng(10);
  Transmitter tx;
  const Bytes p1 = random_bytes(80, rng);
  const Bytes p2 = random_bytes(80, rng);
  dsp::CVec burst = tx.modulate({Rate::kMbps12, p1});
  const dsp::CVec f2 = tx.modulate({Rate::kMbps12, p2});
  burst.insert(burst.end(), 40, dsp::Cplx{0.0, 0.0});
  burst.insert(burst.end(), f2.begin(), f2.end());
  Receiver rx;
  const RxResult res = rx.receive(pad(burst, 150, 60));
  ASSERT_TRUE(res.header_ok);
  EXPECT_EQ(res.psdu, p1);  // receives the first frame of the burst
}

TEST(EdgeCases, AllRatesWithOneBytePayload) {
  dsp::Rng rng(11);
  Transmitter tx;
  Receiver rx;
  for (Rate r : {Rate::kMbps6, Rate::kMbps9, Rate::kMbps12, Rate::kMbps18,
                 Rate::kMbps24, Rate::kMbps36, Rate::kMbps48, Rate::kMbps54}) {
    const Bytes payload = random_bytes(1, rng);
    const RxResult res = rx.receive(pad(tx.modulate({r, payload}), 120, 60));
    ASSERT_TRUE(res.header_ok) << rate_name(r);
    EXPECT_EQ(res.psdu, payload) << rate_name(r);
  }
}

TEST(EdgeCases, DcOffsetAtReceiverInputDoesNotFalseTrigger) {
  // A constant offset is lag-periodic at every lag; the detector must not
  // declare a frame (the regression behind the zero-IF false trigger).
  dsp::CVec dc(8000, dsp::Cplx{0.05, 0.03});
  Receiver rx;
  EXPECT_FALSE(rx.receive(dc).header_ok);
}

}  // namespace
}  // namespace wlansim::phy
