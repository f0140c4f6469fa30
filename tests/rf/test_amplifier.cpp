#include "rf/amplifier.h"

#include <cmath>

#include <gtest/gtest.h>

#include "dsp/mathutil.h"
#include "rf/analyses.h"

namespace wlansim::rf {
namespace {

AmplifierConfig base_cfg() {
  AmplifierConfig cfg;
  cfg.gain_db = 15.0;
  cfg.noise_figure_db = 0.0;
  cfg.p1db_in_dbm = -20.0;
  cfg.model = NonlinearityModel::kRapp;
  return cfg;
}

TEST(Amplifier, SmallSignalGainMatchesConfig) {
  Amplifier amp(base_cfg(), 80e6, dsp::Rng(1));
  // 40 dB below compression: essentially linear.
  const double a = std::sqrt(dsp::dbm_to_watts(-60.0));
  EXPECT_NEAR(dsp::to_db(std::pow(amp.am_am(a) / a, 2.0)), 15.0, 0.01);
}

TEST(Amplifier, GainCompressesExactly1dbAtP1db) {
  for (auto model : {NonlinearityModel::kRapp, NonlinearityModel::kClippedCubic}) {
    AmplifierConfig cfg = base_cfg();
    cfg.model = model;
    Amplifier amp(cfg, 80e6, dsp::Rng(1));
    const double a1 = std::sqrt(dsp::dbm_to_watts(cfg.p1db_in_dbm));
    const double gain_db = dsp::to_db(std::pow(amp.am_am(a1) / a1, 2.0));
    EXPECT_NEAR(gain_db, 15.0 - 1.0, 0.01) << static_cast<int>(model);
  }
}

TEST(Amplifier, RappSaturatesMonotonically) {
  Amplifier amp(base_cfg(), 80e6, dsp::Rng(1));
  double prev_out = 0.0;
  double prev_gain = 1e9;
  for (double dbm = -60.0; dbm < 30.0; dbm += 1.0) {
    const double a = std::sqrt(dsp::dbm_to_watts(dbm));
    const double out = amp.am_am(a);
    EXPECT_GT(out, prev_out);  // output keeps rising (soft limiter)
    const double g = out / a;
    EXPECT_LE(g, prev_gain + 1e-12);  // gain monotonically compresses
    prev_out = out;
    prev_gain = g;
  }
}

TEST(Amplifier, AmAmIsMonotoneAndSaturates) {
  // A real envelope ramp through the block's own loop (the one the link
  // runs), noise off, on a 2000-point log grid from 1 nV to 1e6 times the
  // 1 dB compression envelope. The tolerances only forgive rounding: a
  // correct curve falls by up to ~6e-16 relative between grid points.
  struct Model {
    const char* name;
    NonlinearityModel model;
    double p;
    double am_pm_deg;
  };
  const Model models[] = {
      {"rapp p=1", NonlinearityModel::kRapp, 1.0, 0.0},
      {"rapp p=2", NonlinearityModel::kRapp, 2.0, 0.0},
      {"rapp p=3", NonlinearityModel::kRapp, 3.0, 0.0},
      {"rapp p=10", NonlinearityModel::kRapp, 10.0, 0.0},
      {"clipped cubic", NonlinearityModel::kClippedCubic, 2.0, 0.0},
      {"rapp p=2, AM/PM 10 deg", NonlinearityModel::kRapp, 2.0, 10.0},
      {"rapp p=2, AM/PM 30 deg", NonlinearityModel::kRapp, 2.0, 30.0},
  };
  const double kComp1dB = 1.0 - std::pow(10.0, -1.0 / 20.0);
  for (const Model& m : models) {
    SCOPED_TRACE(m.name);
    AmplifierConfig cfg = base_cfg();
    cfg.model = m.model;
    cfg.rapp_smoothness = m.p;
    cfg.am_pm_max_deg = m.am_pm_deg;
    cfg.noise_enabled = false;
    const double a1 = std::sqrt(dsp::dbm_to_watts(cfg.p1db_in_dbm));
    const std::size_t n = 2000;
    dsp::CVec x(n);
    for (std::size_t k = 0; k < n; ++k) {
      const double t = static_cast<double>(k) / static_cast<double>(n - 1);
      x[k] = dsp::Cplx{1e-9 * std::pow(1e6 * a1 / 1e-9, t), 0.0};
    }
    const dsp::CVec y = Amplifier(cfg, 80e6, dsp::Rng(1)).process(x);

    const double max_rad = m.am_pm_deg * dsp::kPi / 180.0;
    for (std::size_t k = 0; k < n; ++k) {
      const double phase = std::arg(y[k] / x[k]);
      EXPECT_LE(phase, max_rad + 1e-14) << "k=" << k;
      if (k == 0) continue;
      EXPECT_GE(std::abs(y[k]), std::abs(y[k - 1]) * (1.0 - 1e-14))
          << "k=" << k;
      EXPECT_GE(phase, std::arg(y[k - 1] / x[k - 1]) - 1e-14) << "k=" << k;
    }

    if (m.model == NonlinearityModel::kRapp) {
      // Saturated: the far end of the ramp has reached the plateau.
      const dsp::CVec far = Amplifier(cfg, 80e6, dsp::Rng(1))
                                .process(dsp::CVec{dsp::Cplx{1e4 * a1, 0.0},
                                                   dsp::Cplx{1e6 * a1, 0.0}});
      EXPECT_NEAR(std::abs(far[0]) / std::abs(far[1]), 1.0, 1e-6);
    } else {
      // Hard-limited: constant above the clip.
      const double clip = a1 / std::sqrt(3.0 * kComp1dB);
      double top = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        if (x[k].real() <= clip) continue;
        if (top == 0.0) top = std::abs(y[k]);
        EXPECT_NEAR(std::abs(y[k]) / top, 1.0, 1e-14) << "k=" << k;
      }
      EXPECT_GT(top, 0.0);
    }
  }
}

TEST(Amplifier, ClippedCubicHoldsPeakBeyondClip) {
  AmplifierConfig cfg = base_cfg();
  cfg.model = NonlinearityModel::kClippedCubic;
  Amplifier amp(cfg, 80e6, dsp::Rng(1));
  const double a1 = std::sqrt(dsp::dbm_to_watts(cfg.p1db_in_dbm));
  const double clip = a1 / std::sqrt(3.0 * (1.0 - std::pow(10.0, -0.05)));
  // Beyond the polynomial peak the output must not fold back down.
  const double peak = amp.am_am(clip);
  EXPECT_NEAR(amp.am_am(2.0 * clip), peak, 1e-12);
  EXPECT_NEAR(amp.am_am(10.0 * clip), peak, 1e-12);
}

TEST(Amplifier, LinearModelNeverCompresses) {
  AmplifierConfig cfg = base_cfg();
  cfg.model = NonlinearityModel::kLinear;
  Amplifier amp(cfg, 80e6, dsp::Rng(1));
  const double g0 = amp.am_am(1e-6) / 1e-6;
  EXPECT_NEAR(amp.am_am(10.0) / 10.0, g0, 1e-9);
}

TEST(Amplifier, AmPmRisesWithDriveAndSaturates) {
  AmplifierConfig cfg = base_cfg();
  cfg.am_pm_max_deg = 10.0;
  Amplifier amp(cfg, 80e6, dsp::Rng(1));
  const double a1 = std::sqrt(dsp::dbm_to_watts(cfg.p1db_in_dbm));
  EXPECT_NEAR(amp.am_pm(1e-6 * a1), 0.0, 1e-6);
  EXPECT_NEAR(amp.am_pm(a1), 0.5 * 10.0 * dsp::kPi / 180.0, 1e-9);
  EXPECT_LT(amp.am_pm(100.0 * a1), 10.0 * dsp::kPi / 180.0 + 1e-9);
  EXPECT_GT(amp.am_pm(100.0 * a1), 0.99 * 10.0 * dsp::kPi / 180.0);
}

TEST(Amplifier, AmPmZeroWhenDisabled) {
  Amplifier amp(base_cfg(), 80e6, dsp::Rng(1));
  EXPECT_DOUBLE_EQ(amp.am_pm(1.0), 0.0);
}

TEST(Amplifier, NoiseFigureMeasuredMatchesConfig) {
  for (double nf : {3.0, 6.0, 10.0}) {
    AmplifierConfig cfg = base_cfg();
    cfg.noise_figure_db = nf;
    Amplifier amp(cfg, 80e6, dsp::Rng(7));
    ToneTestConfig tc;
    tc.num_samples = 1 << 15;
    const double measured = measure_noise_figure_db(amp, tc);
    EXPECT_NEAR(measured, nf, 0.4) << nf;
  }
}

TEST(Amplifier, NoiseDisabledBySwitch) {
  AmplifierConfig cfg = base_cfg();
  cfg.noise_figure_db = 10.0;
  cfg.noise_enabled = false;  // the AMS limitation switch
  Amplifier amp(cfg, 80e6, dsp::Rng(7));
  dsp::CVec zeros(4096, dsp::Cplx{0.0, 0.0});
  const dsp::CVec y = amp.process(zeros);
  EXPECT_DOUBLE_EQ(dsp::mean_power(y), 0.0);
}

TEST(Amplifier, MeasuredP1dbMatchesConfigured) {
  Amplifier amp(base_cfg(), 80e6, dsp::Rng(1));
  ToneTestConfig tc;
  tc.num_samples = 4096;
  tc.settle_samples = 64;
  const double p1 = measure_p1db_in_dbm(amp, tc, -50.0, 0.0, 0.25);
  EXPECT_NEAR(p1, -20.0, 0.5);
}

TEST(Amplifier, MeasuredIip3Near9p6AboveP1db) {
  // Classic cubic relation: IIP3 ~ P1dB + 9.6 dB.
  AmplifierConfig cfg = base_cfg();
  cfg.model = NonlinearityModel::kClippedCubic;
  Amplifier amp(cfg, 80e6, dsp::Rng(1));
  ToneTestConfig tc;
  tc.tone_hz = 1e6;
  tc.tone2_hz = 1.4e6;
  tc.num_samples = 1 << 14;
  const double iip3 = measure_iip3_dbm(amp, tc, -45.0);
  EXPECT_NEAR(iip3, cfg.p1db_in_dbm + 9.6, 1.0);
}

TEST(Amplifier, PhasePreservedThroughGain) {
  Amplifier amp(base_cfg(), 80e6, dsp::Rng(1));
  const dsp::Cplx x = 1e-4 * dsp::Cplx{std::cos(1.1), std::sin(1.1)};
  const dsp::CVec y = amp.process(dsp::CVec{x});
  EXPECT_NEAR(std::arg(y[0]), 1.1, 1e-9);
}

TEST(Amplifier, RejectsBadParameters) {
  AmplifierConfig cfg = base_cfg();
  EXPECT_THROW(Amplifier(cfg, 0.0, dsp::Rng(1)), std::invalid_argument);
  cfg.rapp_smoothness = 0.0;
  EXPECT_THROW(Amplifier(cfg, 80e6, dsp::Rng(1)), std::invalid_argument);
}

}  // namespace
}  // namespace wlansim::rf
