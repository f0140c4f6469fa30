// Golden digests of the RF front end: "same bits" as a ctest.
//
// Each case runs an RF block, an RF analysis or a link packet and folds the
// bit patterns of everything it outputs into one FNV-1a-64 digest.
// tests/golden/front_end.txt holds one `<case> <digest>` line per case, and
// every Golden.* test recomputes its cases and compares them with the file.
// A change that moves one output bit of one case fails here, on whichever
// build and ISA runs the suite.
//
// A change that is meant to move bits rewrites the file and says why:
//
//   build/tests/golden_tests --regen
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiments.h"
#include "core/link.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "rf/analyses.h"
#include "rf/blackbox.h"
#include "rf/direct_conversion.h"
#include "rf/receiver_chain.h"
#include "sim/cosim.h"

namespace wlansim {
namespace {

namespace kn = dsp::kernels;
using dsp::Cplx;
using dsp::CVec;
using dsp::Rng;

bool g_regen = false;
std::map<std::string, std::string> g_regen_lines;  // case -> digest
std::set<std::string> g_regen_prefixes;              // the tests that ran

/// FNV-1a-64 over 8-byte little-endian words.
class Digest {
 public:
  void word(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffu;
      h_ *= 1099511628211ULL;
    }
  }
  void real(double v) { word(std::bit_cast<std::uint64_t>(v)); }
  void reals(std::span<const double> x) {
    for (const double v : x) real(v);
  }
  void cplx(std::span<const Cplx> x) {
    for (const Cplx& v : x) {
      real(v.real());
      real(v.imag());
    }
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::map<std::string, std::string> read_golden_file() {
  std::map<std::string, std::string> lines;
  std::ifstream in(WLANSIM_GOLDEN_FILE);
  std::string key, hex;
  while (in >> key >> hex) lines[key] = hex;
  return lines;
}

/// The digests of one Golden.* test, all named `<prefix>/...`: checked
/// against the file, or under --regen collected for it.
class Cases {
 public:
  explicit Cases(std::string prefix) : prefix_(std::move(prefix) + "/") {}

  void add(const std::string& name, const Digest& d) {
    got_[prefix_ + name] = d.hex();
  }

  /// Compare with the file: every case this test computed must be there
  /// with the same digest, and every case of the prefix there must have
  /// been computed.
  void finish() {
    if (g_regen) {
      g_regen_prefixes.insert(prefix_);
      g_regen_lines.insert(got_.begin(), got_.end());
      return;
    }
    const std::map<std::string, std::string> want = read_golden_file();
    std::size_t bad = 0;
    for (const auto& [key, hex] : got_) {
      const auto it = want.find(key);
      if (it == want.end()) {
        ADD_FAILURE() << key << " is not in the golden file";
        ++bad;
      } else if (it->second != hex) {
        ADD_FAILURE() << key << ": digest " << hex << ", golden "
                      << it->second;
        ++bad;
      }
    }
    for (const auto& [key, hex] : want) {
      if (key.rfind(prefix_, 0) == 0 && got_.count(key) == 0) {
        ADD_FAILURE() << key << " is in the golden file but not computed";
        ++bad;
      }
    }
    EXPECT_EQ(bad, 0u) << "of " << got_.size() << " cases";
  }

 private:
  std::string prefix_;
  std::map<std::string, std::string> got_;
};

// ---- block models ----------------------------------------------------------

constexpr std::size_t kTiles[] = {333, 1, 1024, 777};
constexpr std::size_t kWidths[] = {1, 3, 8};

/// Lane l's input: complex Gaussian noise at a level between -70 and +14
/// dBm, loudest in lane 0, that jumps 20 dB two thirds of the way in, so
/// the amplifiers compress, the AGCs lock and unlock and the ADC clips.
CVec lane_input(std::size_t n, std::size_t l) {
  Rng rng(1000 + l);
  const double amp =
      1e-5 * std::pow(4.0, static_cast<double>((7 + 5 * l) % 8));
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i)
    x[i] = rng.cgaussian(amp * amp) * (3 * i < 2 * n ? 1.0 : 10.0);
  return x;
}

Rng lane_rng(std::size_t l) { return Rng(9000 + 13 * l); }

using MakeBlock = std::function<std::unique_ptr<rf::RfBlock>(Rng)>;
using SeedLane = std::function<void(rf::RfBlock&, std::size_t, Rng)>;
using Outputs = std::vector<CVec>;

/// One block at width nl: begin_lanes, lane l seeded with lane_rng(l), the
/// lanes fed in the kTiles schedule of rows.
Outputs run_lanes(rf::RfBlock& block, const SeedLane& seed,
                  const Outputs& in) {
  const std::size_t nl = in.size(), n = in[0].size();
  dsp::RVec soa(2 * n * nl);
  for (std::size_t l = 0; l < nl; ++l)
    kn::lanes_pack(in[l].data(), n, nl, l, soa.data());
  block.begin_lanes(nl);
  for (std::size_t l = 0; l < nl; ++l) seed(block, l, lane_rng(l));
  for (std::size_t off = 0, t = 0; off < n; ++t) {
    const std::size_t len = std::min(kTiles[t % 4], n - off);
    block.process_tile_lanes(soa.data() + 2 * nl * off, len, nl);
    off += len;
  }
  Outputs out(nl, CVec(n));
  for (std::size_t l = 0; l < nl; ++l)
    kn::lanes_unpack(soa.data(), n, nl, l, out[l].data());
  return out;
}

/// One width-1 block per lane, built with lane_rng(l), fed in the kTiles
/// schedule of samples.
Outputs run_per_lane(const MakeBlock& make, const Outputs& in) {
  Outputs out;
  for (std::size_t l = 0; l < in.size(); ++l) {
    const auto block = make(lane_rng(l));
    const std::size_t n = in[l].size();
    CVec y = in[l];
    for (std::size_t off = 0, t = 0; off < n; ++t) {
      const std::size_t len = std::min(kTiles[t % 4], n - off);
      block->process_tile_lanes(reinterpret_cast<double*>(y.data() + off), len,
                                1);
      off += len;
    }
    out.push_back(std::move(y));
  }
  return out;
}

struct BlockCase {
  std::string name;
  std::size_t n;  ///< samples per lane
  std::function<Outputs(const Outputs&)> run;
};

BlockCase lane_case(std::string name, std::size_t n, MakeBlock make,
                    SeedLane seed) {
  return {std::move(name), n, [make, seed](const Outputs& in) {
            return run_lanes(*make(Rng(42)), seed, in);
          }};
}

BlockCase per_lane_case(std::string name, std::size_t n, MakeBlock make) {
  return {std::move(name), n,
          [make](const Outputs& in) { return run_per_lane(make, in); }};
}

template <typename Block>
SeedLane lane_rng_setter() {
  return [](rf::RfBlock& b, std::size_t l, Rng rng) {
    static_cast<Block&>(b).set_lane_rng(l, rng);
  };
}

const SeedLane kNoSeed = [](rf::RfBlock&, std::size_t, Rng) {};

BlockCase amplifier_case(std::string name, rf::AmplifierConfig cfg) {
  return lane_case(std::move(name), 3000,
                   [cfg](Rng rng) {
                     return std::make_unique<rf::Amplifier>(cfg, 80e6, rng);
                   },
                   lane_rng_setter<rf::Amplifier>());
}

BlockCase mixer_case(std::string name, rf::MixerConfig cfg) {
  return lane_case(std::move(name), 3000,
                   [cfg](Rng rng) {
                     return std::make_unique<rf::Mixer>(cfg, 80e6, rng);
                   },
                   lane_rng_setter<rf::Mixer>());
}

/// The flicker source recording its lanes' shaped noise (replay = false),
/// or replaying a recording under other lane rngs (replay = true).
BlockCase flicker_case(std::string name, bool replay) {
  return {std::move(name), 3000, [replay](const Outputs& in) {
            const auto make = [] {
              return std::make_unique<rf::FlickerNoiseSource>(
                  1e-9, 1e3, 200e3, 80e6, Rng(42));
            };
            std::vector<rf::ShapedNoiseTape> tapes(in.size());
            const auto taped = [&tapes](std::uint64_t salt) {
              return [&tapes, salt](rf::RfBlock& b, std::size_t l, Rng rng) {
                auto& src = static_cast<rf::FlickerNoiseSource&>(b);
                src.set_lane_rng(l, salt == 0 ? rng : Rng(salt + l));
                src.set_lane_tape(l, &tapes[l]);
              };
            };
            Outputs out = run_lanes(*make(), taped(0), in);
            if (replay) out = run_lanes(*make(), taped(777), in);
            return out;
          }};
}

std::shared_ptr<const rf::BlackBoxFit> fixed_blackbox_fit() {
  // A synthetic J&K table: a lowpass with a 30-tap bulk delay, a Rapp-like
  // 30 dB envelope curve with AM/PM, and an output noise floor.
  rf::BlackBoxData d;
  d.sample_rate_hz = 80e6;
  const std::size_t t = 61;
  for (std::size_t k = 0; k < t; ++k) {
    const double fn =
        (static_cast<double>(k) - 30.0) / static_cast<double>(t);
    const double mag = 1.0 / std::sqrt(1.0 + std::pow(fn / 0.12, 8.0));
    const double ph = -dsp::kTwoPi * fn * 30.0 + 0.1 * fn;
    d.freq_hz.push_back(fn * d.sample_rate_hz);
    d.h.push_back(mag * Cplx{std::cos(ph), std::sin(ph)});
  }
  const double g = std::pow(10.0, 30.0 / 20.0), vsat = 0.3;
  for (std::size_t i = 0; i < 25; ++i) {
    const double a = std::sqrt(dsp::dbm_to_watts(
        -70.0 + 60.0 * static_cast<double>(i) / 24.0));
    const double r = g * a / vsat;
    d.env_in.push_back(a);
    d.env_out.push_back(g * a / std::pow(1.0 + std::pow(r, 4.0), 0.25));
    d.env_phase.push_back(0.2 * r * r / (1.0 + r * r));
  }
  d.noise_power = 1e-12;
  return rf::fit_blackbox(d);
}

std::vector<BlockCase> block_cases() {
  std::vector<BlockCase> cases;

  rf::AmplifierConfig amp;
  amp.noise_figure_db = 3.0;
  cases.push_back(amplifier_case("amp-rapp-p2-noise", amp));
  amp.rapp_smoothness = 3.0;
  amp.p1db_in_dbm = -30.0;
  amp.noise_enabled = false;
  cases.push_back(amplifier_case("amp-rapp-p3", amp));
  amp = {};
  amp.model = rf::NonlinearityModel::kClippedCubic;
  amp.noise_enabled = false;
  cases.push_back(amplifier_case("amp-clipped-cubic", amp));
  amp = {};
  amp.am_pm_max_deg = 10.0;
  amp.noise_enabled = false;
  cases.push_back(amplifier_case("amp-ampm-10deg", amp));
  amp = {};
  amp.model = rf::NonlinearityModel::kLinear;
  amp.noise_enabled = false;
  cases.push_back(amplifier_case("amp-linear", amp));

  rf::MixerConfig mix;
  mix.conversion_gain_db = 8.0;
  mix.image_rejection_db = 40.0;
  mix.iq_gain_imbalance_db = 0.3;
  mix.iq_phase_error_deg = 2.0;
  mix.dc_offset = Cplx{3e-5, 2e-5};
  cases.push_back(mixer_case("mixer-const-lo-image-iq-dc", mix));
  mix = {};
  mix.lo_offset_hz = 187e3;
  mix.phase_noise.level_dbc_hz = -95.0;
  cases.push_back(mixer_case("mixer-lo-offset-phase-noise", mix));

  cases.push_back(lane_case(
      "chebyshev", 3000,
      [](Rng) {
        return std::make_unique<rf::ChebyshevLowpass>(7, 1.0, 8.6e6, 80e6);
      },
      kNoSeed));
  cases.push_back(lane_case(
      "dc-block-hpf", 3000,
      [](Rng) {
        return std::make_unique<rf::DcBlockHighpass>(2, 120e3, 80e6);
      },
      kNoSeed));
  cases.push_back(flicker_case("flicker-record", false));
  cases.push_back(flicker_case("flicker-replay", true));
  cases.push_back(per_lane_case("wandering-dc", 3000, [](Rng rng) {
    return std::make_unique<rf::WanderingDcSource>(1e-4, 50e3, 80e6, rng);
  }));
  cases.push_back(lane_case(
      "agc", 3000,
      [](Rng) {
        return std::make_unique<rf::Agc>(rf::DoubleConversionConfig{}.agc);
      },
      kNoSeed));
  cases.push_back(lane_case(
      "adc", 3000,
      [](Rng) {
        return std::make_unique<rf::Adc>(rf::DoubleConversionConfig{}.adc);
      },
      kNoSeed));
  cases.push_back(lane_case(
      "double-conversion-rx", 3000,
      [](Rng rng) {
        return std::make_unique<rf::DoubleConversionReceiver>(
            rf::DoubleConversionConfig{}, rng);
      },
      [](rf::RfBlock& b, std::size_t l, Rng rng) {
        auto& fe = static_cast<rf::DoubleConversionReceiver&>(b);
        fe.reseed_lanes(l, rng);
        fe.set_lane_tapes(l, nullptr, nullptr);
      }));
  cases.push_back(per_lane_case("zero-if-rx-dynamic-dc", 3000, [](Rng rng) {
    rf::DirectConversionConfig zc;
    zc.dynamic_dc_rms = 1e-4;
    return std::make_unique<rf::DirectConversionReceiver>(zc, rng);
  }));
  for (const bool noise : {false, true}) {
    sim::CosimConfig cc;
    cc.analog_oversample = 8;
    cc.supports_noise_functions = noise;
    cases.push_back(lane_case(
        noise ? "cosim-x8-noise-functions" : "cosim-x8", 1000,
        [cc](Rng rng) {
          return std::make_unique<sim::CosimRfReceiver>(
              rf::DoubleConversionConfig{}, cc, rng);
        },
        [](rf::RfBlock& b, std::size_t l, Rng rng) {
          static_cast<sim::CosimRfReceiver&>(b).reseed_lanes(l, rng);
        }));
  }
  const auto fit = fixed_blackbox_fit();
  cases.push_back(per_lane_case("blackbox", 3000, [fit](Rng rng) {
    return std::make_unique<rf::BlackBoxModel>(fit, rng);
  }));
  return cases;
}

TEST(Golden, BlockModels) {
  Cases golden("block");
  for (const BlockCase& c : block_cases()) {
    for (const std::size_t nl : kWidths) {
      Outputs in;
      for (std::size_t l = 0; l < nl; ++l) in.push_back(lane_input(c.n, l));
      const Outputs out = c.run(in);
      ASSERT_EQ(out.size(), nl) << c.name;
      for (std::size_t l = 0; l < nl; ++l) {
        ASSERT_EQ(out[l].size(), c.n) << c.name;
        Digest d;
        d.cplx(out[l]);
        golden.add(c.name + "/w" + std::to_string(nl) + "/l" +
                       std::to_string(l),
                   d);
      }
    }
  }
  golden.finish();
}

// ---- RF analyses -------------------------------------------------------------

/// The default chain as the characterization analyses see it: the AGC
/// held at 0 dB and the ADC off, as `wlansim rfchar` builds it.
rf::DoubleConversionConfig static_gain_chain(bool noise) {
  rf::DoubleConversionConfig rfc;
  rfc.agc.loop_gain = 0.0;
  rfc.agc.initial_gain_db = 0.0;
  rfc.adc.enabled = false;
  rfc.noise_enabled = noise;
  return rfc;
}

Digest value_digest(double v) {
  Digest d;
  d.real(v);
  return d;
}

TEST(Golden, Analyses) {
  Cases golden("analysis");
  rf::DoubleConversionReceiver chain(static_gain_chain(false), Rng(1));
  rf::ToneTestConfig tc;
  tc.num_samples = 4096;
  tc.settle_samples = 4096;
  golden.add("gain", value_digest(rf::measure_gain_db(chain, tc, -60.0)));
  golden.add("p1db", value_digest(rf::measure_p1db_in_dbm(chain, tc, -35.0,
                                                          -10.0)));
  golden.add("iip3", value_digest(rf::measure_iip3_dbm(chain, tc, -40.0)));
  golden.add("rejection",
             value_digest(rf::measure_rejection_db(chain, tc, 3e6, 20e6)));
  rf::DoubleConversionReceiver noisy(static_gain_chain(true), Rng(2));
  rf::ToneTestConfig tnf = tc;
  tnf.tone_hz = 3e6;
  golden.add("noise-figure",
             value_digest(rf::measure_noise_figure_db(noisy, tnf)));

  rf::DoubleConversionReceiver dut(static_gain_chain(true), Rng(99));
  const rf::BlackBoxData bb = rf::extract_blackbox(dut, rf::ExtractionConfig{});
  Digest freq, h, env_in, env_out, env_phase;
  freq.reals(bb.freq_hz);
  h.cplx(bb.h);
  env_in.reals(bb.env_in);
  env_out.reals(bb.env_out);
  env_phase.reals(bb.env_phase);
  golden.add("blackbox/freq-hz", freq);
  golden.add("blackbox/h", h);
  golden.add("blackbox/env-in", env_in);
  golden.add("blackbox/env-out", env_out);
  golden.add("blackbox/env-phase", env_phase);
  golden.add("blackbox/noise-power", value_digest(bb.noise_power));
  golden.finish();
}

// ---- link packets ------------------------------------------------------------

std::vector<std::pair<std::string, core::LinkConfig>> link_cases() {
  std::vector<std::pair<std::string, core::LinkConfig>> links;
  const core::LinkConfig base = core::default_link_config();
  links.emplace_back("default", base);

  core::LinkConfig c = base;
  c.tx_pa_backoff_db = 8.0;
  c.interferer =
      channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  links.emplace_back("sec41-pa-adjacent", c);

  c = base;
  c.packet_path = core::PacketPath::kGraph;
  links.emplace_back("graph", c);

  c = base;
  c.rf_engine = core::RfEngine::kCosim;
  c.cosim.analog_oversample = 8;
  links.emplace_back("cosim-x8", c);

  c = base;
  c.mode = sim::ExecutionMode::kInterpreted;
  links.emplace_back("interpreted", c);

  const double fs = phy::kSampleRate * base.oversample;
  c = base;
  c.rf_engine = core::RfEngine::kCustom;
  c.custom_rf = [fs](Rng rng) -> std::unique_ptr<rf::RfBlock> {
    rf::DirectConversionConfig zc;
    zc.sample_rate_hz = fs;
    zc.dynamic_dc_rms = 1e-4;
    return std::make_unique<rf::DirectConversionReceiver>(zc, rng);
  };
  links.emplace_back("custom-zero-if", c);

  // BLACKBOX's surrogate: extracted from the static-gain chain.
  rf::DoubleConversionConfig rfc = static_gain_chain(true);
  rfc.sample_rate_hz = fs;
  rf::DoubleConversionReceiver chain(rfc, Rng(99));
  const auto fit =
      rf::fit_blackbox(rf::extract_blackbox(chain, rf::ExtractionConfig{}));
  c = base;
  c.rf.agc.loop_gain = 0.0;
  c.rf.agc.initial_gain_db = 0.0;
  c.rf.adc.enabled = false;
  c.rf_engine = core::RfEngine::kCustom;
  c.custom_rf = [fit](Rng rng) {
    return std::make_unique<rf::BlackBoxModel>(fit, rng);
  };
  links.emplace_back("custom-blackbox", c);
  return links;
}

TEST(Golden, LinkPackets) {
  Cases golden("link");
  for (const auto& [name, cfg] : link_cases()) {
    core::WlanLink link(cfg);
    for (std::uint64_t i = 0; i < 4; ++i) {
      const core::PacketResult r = link.run_packet(i);
      Digest d;
      d.word(r.decoded ? 1 : 0);
      d.word(r.bits);
      d.word(r.bit_errors);
      d.real(r.evm_rms);
      d.real(r.cfo_norm);
      d.cplx(link.last_rx_baseband());
      golden.add(name + "/p" + std::to_string(i), d);
    }
  }
  golden.finish();
}

}  // namespace
}  // namespace wlansim

/// `--regen` rewrites the golden file from the tests that ran (all of
/// them, unless a --gtest_filter narrows it); every other line is kept.
int main(int argc, char** argv) {
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--regen") == 0)
      wlansim::g_regen = true;
    else
      args.push_back(argv[i]);
  }
  int n = static_cast<int>(args.size());
  args.push_back(nullptr);  // argv[argc], which gtest's flag parser moves
  testing::InitGoogleTest(&n, args.data());
  const int rc = RUN_ALL_TESTS();
  if (!wlansim::g_regen || rc != 0) return rc;

  std::map<std::string, std::string> lines = wlansim::read_golden_file();
  for (auto it = lines.begin(); it != lines.end();) {
    bool ran = false;
    for (const std::string& p : wlansim::g_regen_prefixes)
      ran = ran || it->first.rfind(p, 0) == 0;
    it = ran ? lines.erase(it) : std::next(it);
  }
  lines.insert(wlansim::g_regen_lines.begin(), wlansim::g_regen_lines.end());
  std::ofstream out(WLANSIM_GOLDEN_FILE);
  for (const auto& [key, hex] : lines) out << key << ' ' << hex << '\n';
  std::printf("wrote %zu digests to %s\n", lines.size(), WLANSIM_GOLDEN_FILE);
  return out ? 0 : 1;
}
