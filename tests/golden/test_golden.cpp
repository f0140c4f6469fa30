// Golden digests of the RF front end, the 802.11a PHY, the random streams,
// the drop geometry, the trace text and the daemon's replies: "same bits"
// as a ctest.
//
// Each case runs an RF block, an RF analysis, a link packet, a PHY stage,
// an FFT, a generator, a geometry draw or a text encoder and folds the bit
// patterns (or the bytes) of everything it outputs into one FNV-1a-64
// digest.
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
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "channel/fading.h"
#include "core/experiments.h"
#include "core/link.h"
#include "dsp/fft.h"
#include "dsp/kernels.h"
#include "dsp/mathutil.h"
#include "dsp/resample.h"
#include "phy80211a/preamble.h"
#include "phy80211a/receiver.h"
#include "phy80211a/sync.h"
#include "phy80211a/transmitter.h"
#include "rf/analyses.h"
#include "rf/blackbox.h"
#include "rf/direct_conversion.h"
#include "rf/receiver_chain.h"
#include "scenario/drop.h"
#include "scenario/geometry.h"
#include "scenario/trace.h"
#include "service/protocol.h"
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
  /// The length, then every byte.
  void text(std::string_view s) {
    word(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 1099511628211ULL;
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

// ---- 802.11a PHY and FFT -----------------------------------------------------

/// PSDU size putting `nsym` DATA symbols on the air at rate r.
std::size_t psdu_bytes_for_symbols(phy::Rate r, std::size_t nsym) {
  const phy::RateParams& p = phy::rate_params(r);
  const std::size_t bits = nsym * p.ndbps;
  const std::size_t overhead = phy::kServiceBits + phy::kTailBits;
  if (bits <= overhead + 8) return 1;
  return std::min<std::size_t>((bits - overhead) / 8, 4095);
}

/// A case-name token for rate r ("6mbps").
std::string rate_key(phy::Rate r) {
  return std::to_string(static_cast<int>(phy::rate_params(r).rate_mbps)) +
         "mbps";
}

CVec padded(const CVec& frame, std::size_t lead, std::size_t tail) {
  CVec out(lead, Cplx{0.0, 0.0});
  out.insert(out.end(), frame.begin(), frame.end());
  out.insert(out.end(), tail, Cplx{0.0, 0.0});
  return out;
}

void add_noise(CVec& x, std::uint64_t seed, double var) {
  Rng noise(seed);
  for (Cplx& v : x) v += noise.cgaussian(var);
}

/// Every field of a receive result, each data point's bits included.
Digest rx_digest(const phy::RxResult& r) {
  Digest d;
  d.word(r.detected ? 1 : 0);
  d.word(r.header_ok ? 1 : 0);
  d.word(static_cast<std::uint64_t>(r.signal.rate));
  d.word(r.signal.length);
  d.word(r.psdu.size());
  for (const std::uint8_t b : r.psdu) d.word(b);
  d.real(r.cfo_norm);
  d.word(r.frame_start);
  d.word(r.data_points.size());
  for (const CVec& s : r.data_points) {
    d.word(s.size());
    d.cplx(s);
  }
  return d;
}

/// Noise lead + preamble-plus-noise + noise-like payload (the sync tests'
/// signal).
CVec sync_signal(double noise_sigma, unsigned seed, std::size_t lead = 400) {
  Rng rng(seed);
  const CVec pre = phy::full_preamble();
  CVec sig;
  for (std::size_t i = 0; i < lead; ++i)
    sig.push_back(rng.cgaussian(noise_sigma));
  for (const Cplx& v : pre) sig.push_back(v + rng.cgaussian(noise_sigma));
  for (std::size_t i = 0; i < 1200; ++i)
    sig.push_back(rng.cgaussian(0.3) + rng.cgaussian(noise_sigma));
  return sig;
}

void add_detection(Cases& golden, const std::string& name,
                   std::span<const Cplx> sig, double threshold = 0.6) {
  const auto det = phy::detect_packet(sig, threshold);
  Digest d;
  d.word(det ? 1 : 0);
  if (det) {
    d.word(det->detect_index);
    d.real(det->coarse_cfo_norm);
  }
  golden.add("detect/" + name, d);
}

void add_lts(Cases& golden, const std::string& name, std::span<const Cplx> sig,
             std::size_t lo, std::size_t hi) {
  const auto lts = phy::locate_long_training(sig, lo, hi);
  Digest d;
  d.word(lts ? 1 : 0);
  if (lts) d.word(*lts);
  golden.add("lts/" + name, d);
}

/// Detection, then the LTS search over the 400 samples after it.
void add_sync(Cases& golden, const std::string& name,
              std::span<const Cplx> sig) {
  add_detection(golden, name, sig);
  const auto det = phy::detect_packet(sig);
  if (det)
    add_lts(golden, name, sig, det->detect_index, det->detect_index + 400);
}

void add_tx_cases(Cases& golden) {
  Rng rng(42);
  for (std::size_t ri = 0; ri < phy::kNumRates; ++ri) {
    const auto r = static_cast<phy::Rate>(ri);
    const std::string rate = rate_key(r);
    for (const std::size_t bytes :
         {std::size_t{1}, psdu_bytes_for_symbols(r, 7), std::size_t{4095}}) {
      const phy::Transmitter tx;
      const phy::Frame f{r, phy::random_bytes(bytes, rng)};
      CVec points;
      Digest d;
      d.cplx(tx.modulate(f, &points));
      golden.add("tx/" + rate + "/" + std::to_string(bytes), d);
      if (bytes != 4095) continue;
      Digest pts;
      pts.cplx(points);
      golden.add("data-points/" + rate, pts);
    }
    Digest sig;
    sig.cplx(phy::modulate_signal_field({r, 100 + 37 * ri}));
    golden.add("signal/" + rate, sig);
  }

  Rng cfg_rng(43);
  const phy::Transmitter::Config cfgs[] = {
      {.window_overlap = 6},
      {.clip_papr_db = 5.0},
      {.scrambler_seed = 0x31,
       .output_power_dbm = -10.0,
       .window_overlap = 4,
       .clip_papr_db = 6.0}};
  for (std::size_t i = 0; i < std::size(cfgs); ++i) {
    const phy::Transmitter tx(cfgs[i]);
    Digest d;
    d.cplx(tx.modulate({phy::Rate::kMbps36, phy::random_bytes(300, cfg_rng)}));
    golden.add("tx-cfg/" + std::to_string(i), d);
  }
}

void add_rx_cases(Cases& golden) {
  const phy::Transmitter tx;
  Rng rng(44);
  for (std::size_t ri = 0; ri < phy::kNumRates; ++ri) {
    const auto r = static_cast<phy::Rate>(ri);
    CVec rx = padded(tx.modulate({r, phy::random_bytes(200, rng)}), 250, 80);
    add_noise(rx, 50 + ri, 1e-5);
    const std::string rate = rate_key(r);
    golden.add("rx/awgn/" + rate, rx_digest(phy::Receiver().receive(rx)));
    golden.add("rx-at/awgn/" + rate,
               rx_digest(phy::Receiver().receive_at(rx, 250)));
  }

  Rng track_rng(45);
  const CVec frame =
      tx.modulate({phy::Rate::kMbps24, phy::random_bytes(400, track_rng)});
  CVec cfo_rx = padded(dsp::frequency_shift(frame, 0.004), 300, 80);
  add_noise(cfo_rx, 46, 1e-5);
  for (const bool phase : {false, true}) {
    for (const bool timing : {false, true}) {
      const phy::Receiver rcv({.track_phase = phase, .track_timing = timing});
      const std::string mode = std::string(phase ? "phase" : "nophase") +
                               (timing ? "-timing" : "-notiming");
      golden.add("rx/cfo/" + mode, rx_digest(rcv.receive(cfo_rx)));
      golden.add("rx-at/cfo/" + mode,
                 rx_digest(rcv.receive_at(cfo_rx, 300, 0.004)));
    }
  }

  Rng fade_rng(47);
  const CVec fade_frame =
      tx.modulate({phy::Rate::kMbps12, phy::random_bytes(250, fade_rng)});
  channel::FadingConfig fcfg;
  fcfg.rms_delay_spread_s = 50e-9;
  Rng chan_rng(48);
  const channel::MultipathChannel chan(fcfg, chan_rng);
  CVec fade_rx = chan.apply(padded(fade_frame, 300, 100));
  Rng noise(49);
  for (std::size_t i = 0; i < fade_rx.size(); ++i) {
    const double ang = dsp::kTwoPi * 0.11 * static_cast<double>(i);
    fade_rx[i] += 3e-3 * Cplx{std::cos(ang), std::sin(ang)};
    fade_rx[i] += noise.cgaussian(1e-5);
  }
  for (const std::size_t smoothing : {1, 3}) {
    const phy::Receiver rcv({.chanest_smoothing = smoothing});
    const std::string s = "/smooth" + std::to_string(smoothing);
    golden.add("rx/fading-cw" + s, rx_digest(rcv.receive(fade_rx)));
    golden.add("rx-at/fading-cw" + s, rx_digest(rcv.receive_at(fade_rx, 300)));
  }

  Rng cut_rng(52);
  const CVec cut_frame =
      tx.modulate({phy::Rate::kMbps6, phy::random_bytes(120, cut_rng)});
  const std::size_t cut =
      phy::kPreambleLen + phy::kSymbolLen + 5 * phy::kSymbolLen + 11;
  const CVec cut_rx =
      padded(CVec(cut_frame.begin(), cut_frame.begin() + cut), 220, 0);
  golden.add("rx/truncated", rx_digest(phy::Receiver().receive(cut_rx)));
  golden.add("rx-at/truncated",
             rx_digest(phy::Receiver().receive_at(cut_rx, 220)));

  // estimate_channel on both long training symbols through the fading
  // channel, the receive path's window (3 samples into the guard).
  const std::size_t lts = 300 + phy::kShortPreambleLen + 32 - 3;
  const phy::ChannelEstimate est = phy::estimate_channel(
      std::span<const Cplx>(fade_rx).subspan(lts, 2 * phy::kNfft));
  Digest h;
  h.cplx(est.h);
  golden.add("estimate-channel", h);
}

void add_sync_cases(Cases& golden) {
  add_sync(golden, "clean", sync_signal(1e-3, 101));
  for (const double cfo : {-0.01, -0.003, 0.001, 0.004, 0.01}) {
    CVec sig = sync_signal(3e-3, 102);
    phy::correct_cfo(sig, -cfo);
    add_sync(golden, "cfo" + std::to_string(cfo), sig);
  }
  const CVec x = sync_signal(3e-3, 103);
  CVec two_tap(x.size());
  for (std::size_t n = 0; n < x.size(); ++n) {
    two_tap[n] = x[n];
    if (n >= 3) two_tap[n] += Cplx{0.1, 0.35} * x[n - 3];
  }
  add_sync(golden, "two-tap", two_tap);
  add_detection(golden, "low-snr", sync_signal(0.25, 104));

  Rng rng(105);
  CVec noise(4000);
  for (Cplx& v : noise) v = rng.cgaussian(1.0);
  add_detection(golden, "pure-noise", noise);
  add_lts(golden, "pure-noise", noise, 0, noise.size());

  const CVec sweep = sync_signal(0.08, 106);
  for (const double thr : {0.3, 0.5, 0.6, 0.75, 0.9, 0.97, 0.999})
    add_detection(golden, "threshold" + std::to_string(thr), sweep, thr);

  Rng lead_rng(107);
  CVec zero_lead(700, Cplx{0.0, 0.0});
  for (const Cplx& v : phy::full_preamble())
    zero_lead.push_back(v + lead_rng.cgaussian(1e-3));
  for (std::size_t i = 0; i < 900; ++i)
    zero_lead.push_back(lead_rng.cgaussian(0.3));
  add_sync(golden, "zero-lead", zero_lead);
  add_lts(golden, "zero-lead-full", zero_lead, 0, zero_lead.size());

  Rng short_rng(108);
  for (const std::size_t n : {0u, 10u, 48u, 49u, 80u}) {
    CVec sig(n);
    for (Cplx& v : sig) v = short_rng.cgaussian(1.0);
    add_detection(golden, "short" + std::to_string(n), sig);
    add_lts(golden, "short" + std::to_string(n), sig, 0, sig.size());
  }
}

void add_fft_cases(Cases& golden) {
  constexpr std::size_t kRows = 3, kPad = 5;
  for (std::size_t n = 2; n <= 4096; n <<= 1) {
    const dsp::Fft fft(n);
    Rng rng(600 + n);
    CVec x((n + kPad) * kRows);
    for (Cplx& v : x) v = rng.cgaussian(1.0);
    const std::span<const Cplx> x0(x.data(), n);
    const std::string sz = "/n" + std::to_string(n);

    Digest in_place;
    CVec y(x0.begin(), x0.end());
    fft.forward(std::span<Cplx>(y));
    in_place.cplx(y);
    y.assign(x0.begin(), x0.end());
    fft.inverse(std::span<Cplx>(y));
    in_place.cplx(y);
    golden.add("fft/in-place" + sz, in_place);

    Digest out_of_place;
    fft.forward(x0, std::span<Cplx>(y));
    out_of_place.cplx(y);
    fft.inverse(x0, std::span<Cplx>(y));
    out_of_place.cplx(y);
    out_of_place.cplx(fft.forward(x0));
    out_of_place.cplx(fft.inverse(x0));
    golden.add("fft/out-of-place" + sz, out_of_place);

    Digest batch;
    CVec rows(n * kRows);
    fft.forward_batch(x.data(), n + kPad, rows.data(), kRows);
    batch.cplx(rows);
    fft.inverse_batch(x.data(), n + kPad, rows.data(), kRows);
    batch.cplx(rows);
    golden.add("fft/batch" + sz, batch);
  }
}

TEST(Golden, Phy) {
  Cases golden("phy");
  add_tx_cases(golden);
  add_rx_cases(golden);
  add_sync_cases(golden);
  add_fft_cases(golden);
  golden.finish();
}

// ---- random streams ----------------------------------------------------------

/// Seeds of the generator cases: the edges of the seed word, the engine's
/// default, and seeds the code base uses.
constexpr std::uint64_t kRngSeeds[] = {
    0, 1, 2003, 5489, 0xdeadbeef, 0x9e3779b97f4a7c15ull,
    std::numeric_limits<std::uint64_t>::max()};

/// Draw counts that start, cross and finish the engine's first 312-word
/// block, at its 156-word half and past the second block.
constexpr std::size_t kRngCounts[] = {1,   2,   8,   9,   155, 156,
                                      157, 311, 312, 313, 1000};

/// Every draw of one kind from a fresh generator, per seed: `draw(rng, n,
/// d)` reads n values from rng and folds them into d.
void add_rng_case(Cases& golden, const std::string& kind,
                  const std::function<void(Rng&, std::size_t, Digest&)>& draw) {
  for (const std::size_t n : kRngCounts) {
    Digest d;
    for (const std::uint64_t seed : kRngSeeds) {
      Rng rng(seed);
      draw(rng, n, d);
    }
    golden.add(kind + "/n" + std::to_string(n), d);
  }
}

TEST(Golden, Rng) {
  Cases golden("rng");
  add_rng_case(golden, "raw", [](Rng& rng, std::size_t n, Digest& d) {
    for (std::size_t i = 0; i < n; ++i) d.word(rng.engine()());
  });
  add_rng_case(golden, "block", [](Rng& rng, std::size_t n, Digest& d) {
    std::vector<std::uint64_t> raw(n);
    rng.engine().block(raw.data(), n);
    for (const std::uint64_t w : raw) d.word(w);
    d.word(rng.engine()());
  });
  add_rng_case(golden, "uniform", [](Rng& rng, std::size_t n, Digest& d) {
    for (std::size_t i = 0; i < n; ++i)
      d.real(i % 2 == 0 ? rng.uniform() : rng.uniform(-60.0, 60.0));
  });
  add_rng_case(golden, "uniform-int", [](Rng& rng, std::size_t n, Digest& d) {
    for (std::size_t i = 0; i < n; ++i)
      d.word(static_cast<std::uint64_t>(
          i % 2 == 0 ? rng.uniform_int(0, 126) : rng.uniform_int(-5, 1000)));
  });
  add_rng_case(golden, "gaussian", [](Rng& rng, std::size_t n, Digest& d) {
    for (std::size_t i = 0; i < n; ++i) d.real(rng.gaussian());
  });
  add_rng_case(golden, "fill-gaussian", [](Rng& rng, std::size_t n, Digest& d) {
    std::vector<double> g(n);
    rng.fill_gaussian(g.data(), n);
    d.reals(g);
    d.real(rng.gaussian());
  });
  // Two levels of forks, each child read before and after its parent.
  add_rng_case(golden, "fork", [](Rng& rng, std::size_t n, Digest& d) {
    Rng child = rng.fork();
    Rng grandchild = child.fork();
    Rng sibling = rng.fork();
    for (Rng* r : {&grandchild, &child, &sibling, &rng})
      for (std::size_t i = 0; i < n; ++i) d.word(r->engine()());
  });
  golden.finish();
}

// ---- drop geometry -------------------------------------------------------------

TEST(Golden, Geometry) {
  // The e2ebench drop: 600 stations x 10 steps in a 120 m square, 1 m
  // random-walk steps, the AP and two interferer BSSs.
  constexpr std::size_t kStations = 600, kSteps = 10;
  constexpr double kHalf = 60.0, kStep = 1.0;
  Cases golden("geometry");
  for (const std::uint64_t seed : {std::uint64_t{1}, std::uint64_t{2003}}) {
    const std::string s = "/s" + std::to_string(seed);
    std::vector<scenario::Vec2> pos(kStations);
    Digest place;
    for (std::size_t i = 0; i < kStations; ++i) {
      pos[i] = scenario::place_uniform(seed, i, kHalf);
      place.real(pos[i].x);
      place.real(pos[i].y);
    }
    golden.add("place" + s, place);
    Digest walk;
    for (std::size_t step = 1; step < kSteps; ++step) {
      for (std::size_t i = 0; i < kStations; ++i) {
        pos[i] = scenario::walk_step(pos[i], seed, i, step, kStep, kHalf);
        walk.real(pos[i].x);
        walk.real(pos[i].y);
      }
    }
    golden.add("walk" + s, walk);
    for (const double sigma : {6.0, 0.0}) {
      for (std::uint64_t bss = 0; bss < 3; ++bss) {
        Digest sh;
        for (std::size_t step = 0; step < kSteps; ++step)
          for (std::size_t i = 0; i < kStations; ++i)
            sh.real(scenario::shadowing_db(seed, i, bss, step, sigma));
        golden.add("shadowing" + s + "/e" + std::to_string(bss) + "/sigma" +
                       std::to_string(static_cast<int>(sigma)),
                   sh);
      }
    }
  }
  golden.finish();
}

// ---- trace rows and daemon replies ---------------------------------------------

/// Doubles that reach every `%g` shape the number printer emits: zero and
/// -0, both ends of fixed notation (1e-4 and 1e-5, p digits before the
/// point and one more), 17 significant digits, subnormals, powers of two
/// (whose shortest form has an asymmetric interval), integers beyond 2^53
/// and the extremes of the format.
std::vector<double> edge_doubles() {
  std::vector<double> v = {0.0,
                           -0.0,
                           1e-5,
                           1e-4,
                           1.5e-4,
                           0.1,
                           0.1 + 0.2,
                           1.0 / 3.0,
                           -2.5,
                           71.25,
                           100.0,
                           123456.0,
                           1e5,
                           99999.5,
                           1e16,
                           1e17,
                           123456789012345680.0,
                           1e23,
                           -40.0 / 3.0,
                           12.345678901234567,
                           std::numeric_limits<double>::denorm_min(),
                           DBL_MIN,
                           std::nextafter(DBL_MIN, 0.0),
                           DBL_MAX,
                           -DBL_MAX};
  for (const int e : {-1074, -1022, -1021, -20, -1, 0, 1, 52, 53, 60, 1023})
    v.push_back(std::ldexp(1.0, e));
  v.push_back(std::nextafter(std::ldexp(1.0, 60), 0.0));
  v.push_back(std::nextafter(std::ldexp(1.0, 60), HUGE_VAL));
  return v;
}

/// A sample whose eleven doubles are all `v`; its counters vary with `k`.
scenario::StationSample edge_sample(double v, std::uint32_t k) {
  scenario::StationSample s;
  s.step = k;
  s.station = 7 * k;
  s.pos = {v, -v};
  s.dist_m = v;
  s.path_loss_db = v;
  s.shadowing_db = v;
  s.snr_db = v;
  s.snr_bin_db = v;
  if (k % 2 == 0) s.adj_level_db = v;
  s.result.model_ber = v;
  s.result.model_per = v;
  s.result.evm_rms_avg = v;
  s.result.packets = k;
  s.result.from_surrogate = k % 3 == 0;
  s.goodput_mbps = v;
  return s;
}

/// One small drop: 8 stations x 2 steps, one co-channel and one adjacent
/// BSS, an 8-packet budget per cold point.
scenario::DropConfig golden_drop(const std::filesystem::path& store) {
  scenario::DropConfig cfg;
  cfg.num_stations = 8;
  cfg.num_steps = 2;
  cfg.area_half_m = 60.0;
  cfg.seed = 20;
  cfg.link = core::default_link_config();
  cfg.link.psdu_bytes = 40;
  cfg.snr_bin_db = 2.0;
  cfg.snr_min_db = 4.0;
  cfg.snr_max_db = 24.0;
  cfg.adj_bin_db = 6.0;
  cfg.rule.target_rel_ci = 0.5;
  cfg.rule.min_errors = 16;
  cfg.rule.min_packets = 8;
  cfg.rule.max_packets = 8;
  cfg.interferers.push_back({.position = {45.0, 40.0}, .offset_hz = 0.0});
  cfg.interferers.push_back({.position = {-50.0, 15.0}, .offset_hz = 20e6});
  cfg.store_dir = store;
  return cfg;
}

TEST(Golden, Trace) {
  Cases golden("trace");
  const std::vector<double> values = edge_doubles();
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto k = static_cast<std::uint32_t>(i);
    const scenario::StationSample s = edge_sample(values[i], k);
    Digest d;
    d.text(scenario::trace_jsonl_row("golden", s));
    d.text(scenario::trace_csv_row("golden", s));
    golden.add("row/" + std::to_string(i), d);
  }

  const std::filesystem::path store =
      std::filesystem::path(::testing::TempDir()) / "wlansim-golden-drop";
  std::filesystem::remove_all(store);
  const scenario::DropConfig cfg = golden_drop(store);
  for (const char* pass : {"cold", "warm"}) {
    std::ostringstream jsonl;
    scenario::TraceWriter writer(jsonl, scenario::TraceFormat::kJsonl,
                                 "golden");
    const scenario::DropSummary summary = scenario::run_drop(cfg, writer.sink());
    EXPECT_EQ(summary.totals.cold == 0, std::string(pass) == "warm");
    Digest d;
    d.text(jsonl.str());
    golden.add(std::string("drop/") + pass, d);
  }
  std::filesystem::remove_all(store);
  golden.finish();
}

TEST(Golden, ServiceReply) {
  // A Monte-Carlo result, a surrogate one (ber_ci_rel +inf) and results
  // whose doubles walk the printer's edge cases.
  core::BerResult mc;
  mc.packets = 48;
  mc.packets_lost = 1;
  mc.packet_errors = 5;
  mc.bits = 48 * 480;
  mc.bit_errors = 37;
  mc.evm_rms_avg = std::sqrt(2.0) / 33.0;
  mc.ber_ci_rel = 0.32171717171717;
  mc.wall_seconds = 0.125;
  mc.converged = true;
  core::BerResult sur;
  sur.model_ber = 3.3e-4;
  sur.model_per = 1.0 / 81.0;
  sur.from_surrogate = true;
  std::vector<double> axis = {6.0, 7.5, 0.1};
  std::vector<core::BerResult> results = {mc, sur, mc};
  for (const double v : edge_doubles()) {
    core::BerResult r;
    r.evm_rms_avg = v;
    r.ber_ci_rel = v;
    r.wall_seconds = v;
    r.model_ber = v;
    r.model_per = -v;
    axis.push_back(v);
    results.push_back(r);
  }
  core::DedupStats stats;
  stats.queries = results.size();
  stats.distinct = 17;
  stats.warm = 11;
  stats.cold = 6;
  Cases golden("service");
  Digest d;
  d.text(service::results_response(axis, results, stats).dump());
  golden.add("results-reply", d);
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
