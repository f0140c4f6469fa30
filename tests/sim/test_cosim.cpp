#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "rf/analyses.h"
#include "rf_reference.h"
#include "sim/cosim.h"

namespace wlansim::sim {
namespace {

rf::DoubleConversionConfig quiet_rf() {
  rf::DoubleConversionConfig cfg;
  cfg.noise_enabled = false;
  cfg.mixer2_dc_offset = {0.0, 0.0};
  cfg.adc.enabled = false;
  cfg.agc.loop_gain = 0.0;  // fixed gain for comparisons
  cfg.agc.initial_gain_db = 0.0;
  return cfg;
}

TEST(Cosim, MatchesSystemLevelGainOnTone) {
  const rf::DoubleConversionConfig rfc = quiet_rf();
  CosimConfig cc;
  cc.analog_oversample = 8;
  rf::DoubleConversionReceiver sys(rfc, dsp::Rng(1));
  CosimRfReceiver co(rfc, cc, dsp::Rng(1));

  rf::ToneTestConfig tc;
  tc.tone_hz = 2e6;
  tc.num_samples = 8192;
  tc.settle_samples = 4096;
  const double g_sys = rf::measure_gain_db(sys, tc, -50.0);
  const double g_co = rf::measure_gain_db(co, tc, -50.0);
  EXPECT_NEAR(g_sys, g_co, 0.5);
}

TEST(Cosim, NoiseFunctionsIgnoredByDefault) {
  rf::DoubleConversionConfig rfc;
  rfc.mixer2_dc_offset = {0.0, 0.0};
  rfc.noise_enabled = true;  // the design wants noise...
  CosimConfig cc;
  cc.analog_oversample = 4;
  cc.supports_noise_functions = false;  // ...but the AMS transient drops it
  CosimRfReceiver co(rfc, cc, dsp::Rng(2));
  dsp::CVec zeros(8192, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = co.process(zeros);
  EXPECT_LT(dsp::mean_power(y), 1e-25);

  // With the workaround enabled, the noise reappears.
  cc.supports_noise_functions = true;
  CosimRfReceiver fixed(rfc, cc, dsp::Rng(2));
  fixed.reset();
  const dsp::CVec y2 = fixed.process(zeros);
  EXPECT_GT(dsp::mean_power(
                std::span<const dsp::Cplx>(y2).subspan(4096)),
            1e-18);
}

TEST(Cosim, AnalogStepsCounted) {
  CosimConfig cc;
  cc.analog_oversample = 16;
  CosimRfReceiver co(quiet_rf(), cc, dsp::Rng(3));
  dsp::CVec in(100, dsp::Cplx{1e-4, 0.0});
  co.process(in);
  EXPECT_EQ(co.analog_steps(), 1600u);
  co.reset();
  EXPECT_EQ(co.analog_steps(), 0u);
}

TEST(Cosim, OutputLengthPreserved) {
  CosimConfig cc;
  cc.analog_oversample = 8;
  CosimRfReceiver co(quiet_rf(), cc, dsp::Rng(4));
  dsp::CVec in(333, dsp::Cplx{1e-4, 0.0});
  EXPECT_EQ(co.process(in).size(), 333u);
}

TEST(Cosim, LanesMatchScalarPerLane) {
  // The co-simulation lane loop: at widths 1, 3 and 8, fed in outer tiles
  // that do not divide the buffer, lane l must equal the scalar reference
  // loop (tests/reference/rf_reference.h) built with lane l's rng,
  // memcmp-exact, with the noise functions off (the AMS 2.0 limitation)
  // and on (the workaround). Lane
  // levels span -70 to +14 dBm so the fine-rate AGC moves and the loud
  // lanes compress the LNA and clip the ADC.
  namespace kn = dsp::kernels;
  const std::size_t n = 3000;
  constexpr std::size_t kTiles[] = {333, 1, 1024, 777};
  CosimConfig cc;
  cc.analog_oversample = 8;
  const rf::DoubleConversionConfig rfc;
  for (const bool noise_functions : {false, true}) {
    cc.supports_noise_functions = noise_functions;
    for (const std::size_t nl : {std::size_t{1}, std::size_t{3},
                                 kn::kLaneWidth}) {
      SCOPED_TRACE("noise functions " + std::to_string(noise_functions) +
                   ", width " + std::to_string(nl));
      std::vector<dsp::CVec> inputs(nl);
      dsp::RVec soa(2 * n * nl);
      for (std::size_t l = 0; l < nl; ++l) {
        const double level = static_cast<double>((7 + 5 * l) % 8);
        const double amp = 1e-5 * std::pow(4.0, level);
        dsp::Rng rng(1000 + l);
        inputs[l].resize(n);
        for (dsp::Cplx& x : inputs[l]) x = rng.cgaussian(amp * amp);
        kn::lanes_pack(inputs[l].data(), n, nl, l, soa.data());
      }
      CosimRfReceiver lanes(rfc, cc, dsp::Rng(42));
      lanes.begin_lanes(nl);
      for (std::size_t l = 0; l < nl; ++l)
        lanes.reseed_lanes(l, dsp::Rng(9000 + 13 * l));
      for (std::size_t off = 0, t = 0; off < n; ++t) {
        const std::size_t len = std::min(kTiles[t % 4], n - off);
        lanes.process_tile_lanes(soa.data() + 2 * nl * off, len, nl);
        off += len;
      }
      EXPECT_EQ(lanes.analog_steps(), n * cc.analog_oversample);
      for (std::size_t l = 0; l < nl; ++l) {
        dsp::CVec got(n);
        kn::lanes_unpack(soa.data(), n, nl, l, got.data());
        rf::ref::Cosim scalar(rfc, cc, dsp::Rng(9000 + 13 * l));
        const dsp::CVec want = scalar.process(inputs[l]);
        ASSERT_EQ(want.size(), n);
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(std::memcmp(&got[i], &want[i], sizeof(dsp::Cplx)), 0)
              << "lane " << l << " sample " << i;
      }
    }
  }
}

TEST(Cosim, RejectsZeroOversample) {
  CosimConfig cc;
  cc.analog_oversample = 0;
  EXPECT_THROW(CosimRfReceiver(quiet_rf(), cc, dsp::Rng(5)),
               std::invalid_argument);
}

}  // namespace
}  // namespace wlansim::sim
