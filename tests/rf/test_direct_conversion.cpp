#include "rf/direct_conversion.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "dsp/spectrum.h"
#include "rf/analyses.h"
#include "rf/noise.h"

namespace wlansim::rf {
namespace {

DirectConversionConfig quiet_zif() {
  DirectConversionConfig cfg;
  cfg.noise_enabled = false;
  cfg.dc_offset = {0.0, 0.0};
  cfg.flicker_power_dbm = -200.0;
  cfg.iq_gain_imbalance_db = 0.0;
  cfg.iq_phase_error_deg = 0.0;
  cfg.adc.enabled = false;
  cfg.agc.loop_gain = 0.0;
  cfg.agc.initial_gain_db = 0.0;
  return cfg;
}

TEST(DirectConversion, SmallSignalGainMatchesBudget) {
  DirectConversionReceiver rx(quiet_zif(), dsp::Rng(1));
  ToneTestConfig tc;
  tc.tone_hz = 2e6;
  tc.num_samples = 8192;
  tc.settle_samples = 8192;
  EXPECT_NEAR(measure_gain_db(rx, tc, -60.0), rx.front_end_gain_db(), 1.0);
}

TEST(DirectConversion, DcServoRemovesStaticOffset) {
  DirectConversionConfig cfg = quiet_zif();
  cfg.dc_offset = {1e-3, -1e-3};
  DirectConversionReceiver rx(cfg, dsp::Rng(2));
  dsp::CVec zeros(1 << 16, dsp::Cplx{0.0, 0.0});
  const dsp::CVec out = rx.process(zeros);
  const std::span<const dsp::Cplx> settled(out.data() + (1 << 15), 1 << 15);
  EXPECT_LT(std::abs(tone_amplitude(settled, 0.0)), 1e-4);
}

TEST(DirectConversion, ServoDisabledLeavesOffset) {
  DirectConversionConfig cfg = quiet_zif();
  cfg.dc_offset = {1e-3, 0.0};
  cfg.dc_servo_cutoff_hz = 0.0;
  DirectConversionReceiver rx(cfg, dsp::Rng(3));
  dsp::CVec zeros(1 << 14, dsp::Cplx{0.0, 0.0});
  const dsp::CVec out = rx.process(zeros);
  const std::span<const dsp::Cplx> settled(out.data() + (1 << 13), 1 << 13);
  EXPECT_GT(std::abs(tone_amplitude(settled, 0.0)), 1e-4);
}

TEST(DirectConversion, IqImbalanceFoldsImage) {
  DirectConversionConfig cfg = quiet_zif();
  cfg.iq_gain_imbalance_db = 1.0;
  cfg.iq_phase_error_deg = 5.0;
  DirectConversionReceiver rx(cfg, dsp::Rng(4));
  const double fn = 256.0 / 8192.0;  // 2.5 MHz at 80 Msps, integer bin
  dsp::CVec in(1 << 14);
  for (std::size_t i = 0; i < in.size(); ++i) {
    const double ang = dsp::kTwoPi * fn * static_cast<double>(i);
    in[i] = 1e-4 * dsp::Cplx{std::cos(ang), std::sin(ang)};
  }
  const dsp::CVec out = rx.process(in);
  const std::span<const dsp::Cplx> settled(out.data() + (1 << 13), 1 << 13);
  const double irr =
      dsp::to_db(tone_power(settled, fn) / tone_power(settled, -fn));
  EXPECT_GT(irr, 15.0);
  EXPECT_LT(irr, 35.0);  // imbalance present: image clearly visible
}

TEST(WanderingDc, RmsMatchesSpec) {
  WanderingDcSource src(2e-3, 50e3, 80e6, dsp::Rng(5));
  dsp::CVec zeros(1 << 17, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = src.process(zeros);
  const double rms = std::sqrt(dsp::mean_power(y));
  EXPECT_NEAR(rms / 2e-3, 1.0, 0.35);
}

TEST(WanderingDc, EnergyConcentratedNearDc) {
  WanderingDcSource src(1e-2, 30e3, 80e6, dsp::Rng(6));
  dsp::CVec zeros(1 << 17, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = src.process(zeros);
  const dsp::PsdEstimate psd = dsp::welch_psd(y, {.nfft = 8192});
  const double near = psd.band_power(0.0, 200e3 / 80e6);
  const double far = psd.band_power(5e6 / 80e6, 200e3 / 80e6);
  EXPECT_GT(dsp::to_db(near / std::max(far, 1e-30)), 20.0);
}

TEST(WanderingDc, RejectsBadParameters) {
  EXPECT_THROW(WanderingDcSource(-1.0, 1e3, 80e6, dsp::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(WanderingDcSource(1.0, 0.0, 80e6, dsp::Rng(1)),
               std::invalid_argument);
  EXPECT_THROW(WanderingDcSource(1.0, 50e6, 80e6, dsp::Rng(1)),
               std::invalid_argument);
}

TEST(DirectConversion, RunsAtWidthOneOnly) {
  // A link builds the zero-IF receiver per packet; it and its wandering DC
  // source refuse a wider lane call instead of indexing past width 1.
  DirectConversionConfig cfg;
  cfg.dynamic_dc_rms = 1e-4;
  DirectConversionReceiver rx(cfg, dsp::Rng(1));
  WanderingDcSource src(1e-4, 50e3, 80e6, dsp::Rng(2));
  dsp::RVec soa(2 * 16 * 3, 0.0);
  for (RfBlock* b : {static_cast<RfBlock*>(&rx), static_cast<RfBlock*>(&src)}) {
    EXPECT_THROW(b->begin_lanes(3), std::invalid_argument) << b->name();
    EXPECT_THROW(b->process_tile_lanes(soa.data(), 16, 3),
                 std::invalid_argument)
        << b->name();
    EXPECT_NO_THROW(b->begin_lanes(1)) << b->name();
    EXPECT_NO_THROW(b->process_tile_lanes(soa.data(), 16, 1)) << b->name();
  }
}

}  // namespace
}  // namespace wlansim::rf
