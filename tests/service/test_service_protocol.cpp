// Wire-protocol round trips: LinkConfig, StoppingRule, and BerResult must
// survive JSON serialization bit-exactly (the daemon's determinism
// contract), and the request/response envelopes must parse back to what
// was sent.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/experiments.h"
#include "core/fingerprint.h"
#include "service/protocol.h"

namespace wlansim::service {
namespace {

core::LinkConfig fancy_link() {
  core::LinkConfig cfg = core::default_link_config();
  cfg.rate = phy::Rate::kMbps36;
  cfg.psdu_bytes = 123;
  cfg.rx_power_dbm = -61.25;
  cfg.snr_db = 17.125;
  cfg.rf_engine = core::RfEngine::kSystemLevel;
  cfg.rf.lna_p1db_in_dbm = -19.5;
  cfg.rf.bb_bandwidth_factor = 1.0 / 3.0;
  cfg.sco_ppm = 13.7;
  cfg.interferer =
      channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  cfg.seed = (1ull << 62) + 12345;  // not representable as a double
  return cfg;
}

TEST(ServiceProtocol, LinkRoundTripPreservesTheFingerprint) {
  const core::LinkConfig cfg = fancy_link();
  const core::LinkConfig back = link_from_json(link_to_json(cfg));
  // The link fingerprint hashes every evaluation-relevant field; equality
  // means the round trip is evaluation-equivalent.
  EXPECT_EQ(core::link_fingerprint(back), core::link_fingerprint(cfg));
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.snr_db, cfg.snr_db);

  // A field the wire does not carry, set away from its default, would be
  // answered for another link: the encoder refuses it instead.
  using Perturb = void (*)(core::LinkConfig&);
#define OFF_WIRE(stmt) std::pair<const char*, Perturb>{#stmt, [](core::LinkConfig& c) { stmt; }}
  const std::vector<std::pair<const char*, Perturb>> off_wire = {
      OFF_WIRE(c.antenna_noise_density_dbm_hz += 1.0),
      OFF_WIRE(c.fading = channel::FadingConfig{}),
      OFF_WIRE(c.interferer->rate = phy::Rate::kMbps6),
      OFF_WIRE(c.interferer->psdu_bytes += 1),
      OFF_WIRE(c.tx_pa_backoff_db = 8.0),
      OFF_WIRE(c.tx_pa_model = rf::NonlinearityModel::kClippedCubic),
      OFF_WIRE(c.tx_pa_am_pm_max_deg += 1.0),
      OFF_WIRE(c.tx_iq_gain_imbalance_db += 1.0),
      OFF_WIRE(c.tx_iq_phase_error_deg += 1.0),
      OFF_WIRE(c.tx_lo_leakage_rel += 0.01),
      OFF_WIRE(c.oversample = 8),
      OFF_WIRE(c.rf.sample_rate_hz *= 2.0),
      OFF_WIRE(c.rf.lna_gain_db += 1.0),
      OFF_WIRE(c.rf.lna_nf_db += 1.0),
      OFF_WIRE(c.rf.lna_model = rf::NonlinearityModel::kClippedCubic),
      OFF_WIRE(c.rf.lna_am_pm_max_deg += 1.0),
      OFF_WIRE(c.rf.mixer1_gain_db += 1.0),
      OFF_WIRE(c.rf.mixer2_gain_db += 1.0),
      OFF_WIRE(c.rf.lo_offset_hz += 1.0),
      OFF_WIRE(c.rf.lo_phase_noise.level_dbc_hz = -90.0),
      OFF_WIRE(c.rf.lo_phase_noise.offset_hz *= 2.0),
      OFF_WIRE(c.rf.mixer1_image_rejection_db += 1.0),
      OFF_WIRE(c.rf.mixer2_dc_offset *= 2.0),
      OFF_WIRE(c.rf.mixer2_flicker_power_dbm += 1.0),
      OFF_WIRE(c.rf.flicker_corner_hz *= 2.0),
      OFF_WIRE(c.rf.hpf_order += 1),
      OFF_WIRE(c.rf.hpf_cutoff_hz *= 2.0),
      OFF_WIRE(c.rf.bb_filter_order += 1),
      OFF_WIRE(c.rf.bb_filter_ripple_db *= 2.0),
      OFF_WIRE(c.rf.bb_filter_edge_hz *= 1.1),
      OFF_WIRE(c.rf.agc.target_power_dbm += 1.0),
      OFF_WIRE(c.rf.agc.max_gain_db += 1.0),
      OFF_WIRE(c.rf.agc.min_gain_db += 1.0),
      OFF_WIRE(c.rf.agc.loop_gain *= 2.0),
      OFF_WIRE(c.rf.agc.attack_db_per_sample *= 2.0),
      OFF_WIRE(c.rf.agc.decay_db_per_sample *= 2.0),
      OFF_WIRE(c.rf.agc.detector_time_const *= 2.0),
      OFF_WIRE(c.rf.agc.initial_gain_db += 1.0),
      OFF_WIRE(c.rf.agc.lock_window_db += 1.0),
      OFF_WIRE(c.rf.agc.lock_count += 1),
      OFF_WIRE(c.rf.agc.unlock_window_db += 1.0),
      OFF_WIRE(c.rf.adc.bits += 1),
      OFF_WIRE(c.rf.adc.full_scale *= 2.0),
      OFF_WIRE(c.rf.adc.enabled = !c.rf.adc.enabled),
      OFF_WIRE(c.rf.noise_enabled = !c.rf.noise_enabled),
      OFF_WIRE(c.cosim.analog_oversample += 1),
      OFF_WIRE(c.cosim.supports_noise_functions =
                   !c.cosim.supports_noise_functions),
      OFF_WIRE(c.cosim.sync_overhead_ops += 1),
      OFF_WIRE(c.receiver.track_phase = !c.receiver.track_phase),
      OFF_WIRE(c.receiver.track_timing = !c.receiver.track_timing),
      OFF_WIRE(c.receiver.detect_threshold += 0.1),
      OFF_WIRE(c.receiver.chanest_smoothing += 2),
      OFF_WIRE(c.mode = sim::ExecutionMode::kInterpreted),
      OFF_WIRE(c.packet_path = core::PacketPath::kGraph),
      OFF_WIRE(c.lead_samples += 1),
      OFF_WIRE(c.tail_samples += 1),
      OFF_WIRE(c.custom_rf = [](dsp::Rng) {
        return std::unique_ptr<rf::RfBlock>();
      }),
  };
#undef OFF_WIRE
  for (const auto& [name, perturb] : off_wire) {
    core::LinkConfig c = cfg;
    perturb(c);
    EXPECT_THROW(link_to_json(c), std::invalid_argument) << name;
  }
}

TEST(ServiceProtocol, LinkRoundTripNoSnrNoInterferer) {
  core::LinkConfig cfg = core::default_link_config();
  cfg.snr_db.reset();
  cfg.interferer.reset();
  const core::LinkConfig back = link_from_json(link_to_json(cfg));
  EXPECT_FALSE(back.snr_db.has_value());
  EXPECT_FALSE(back.interferer.has_value());
  EXPECT_EQ(core::link_fingerprint(back), core::link_fingerprint(cfg));
}

TEST(ServiceProtocol, RuleRoundTrip) {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.07;
  rule.confidence_z = 2.5758;
  rule.min_errors = 250;
  rule.min_packets = 16;
  rule.max_packets = 123456;
  const sim::StoppingRule back = rule_from_json(rule_to_json(rule));
  EXPECT_EQ(back.target_rel_ci, rule.target_rel_ci);
  EXPECT_EQ(back.confidence_z, rule.confidence_z);
  EXPECT_EQ(back.min_errors, rule.min_errors);
  EXPECT_EQ(back.min_packets, rule.min_packets);
  EXPECT_EQ(back.max_packets, rule.max_packets);
}

TEST(ServiceProtocol, ResultRoundTripIsBitExact) {
  core::BerResult r;
  r.packets = 1234;
  r.packets_lost = 3;
  r.packet_errors = 77;
  r.bits = 987654321;
  r.bit_errors = 4242;
  r.evm_rms_avg = 0.123456789012345678;
  r.ber_ci_rel = 1.0 / 3.0;
  r.converged = true;
  r.from_surrogate = true;
  r.model_ber = 1e-5;
  r.model_per = 0.25;
  r.wall_seconds = 1.75;
  const core::BerResult back = result_from_json(result_to_json(r));
  EXPECT_EQ(back.packets, r.packets);
  EXPECT_EQ(back.packets_lost, r.packets_lost);
  EXPECT_EQ(back.packet_errors, r.packet_errors);
  EXPECT_EQ(back.bits, r.bits);
  EXPECT_EQ(back.bit_errors, r.bit_errors);
  EXPECT_EQ(back.evm_rms_avg, r.evm_rms_avg);
  EXPECT_EQ(back.ber_ci_rel, r.ber_ci_rel);
  EXPECT_EQ(back.converged, r.converged);
  EXPECT_EQ(back.from_surrogate, r.from_surrogate);
  EXPECT_EQ(back.model_ber, r.model_ber);
  EXPECT_EQ(back.model_per, r.model_per);
  EXPECT_EQ(back.wall_seconds, r.wall_seconds);
  EXPECT_EQ(back.ber(), r.ber());
  EXPECT_EQ(back.per(), r.per());
}

TEST(ServiceProtocol, ResultRoundTripCarriesInfiniteCi) {
  // Before the first bit error the Wilson relative half-width is +inf;
  // JSON has no infinity token, so it travels as a string.
  core::BerResult r;
  r.packets = 8;
  r.bits = 8000;
  r.ber_ci_rel = std::numeric_limits<double>::infinity();
  const core::BerResult back = result_from_json(result_to_json(r));
  EXPECT_TRUE(std::isinf(back.ber_ci_rel));
  EXPECT_GT(back.ber_ci_rel, 0.0);
}

TEST(ServiceProtocol, SweepValuesMatchesTheCliLoop) {
  const std::vector<double> vals = sweep_values(5.0, 25.0, 2.0);
  // The CLI's own expansion, verbatim.
  std::vector<double> expect;
  for (double v = 5.0; v <= 25.0 + 1e-9; v += 2.0) expect.push_back(v);
  ASSERT_EQ(vals.size(), expect.size());
  for (std::size_t i = 0; i < vals.size(); ++i) EXPECT_EQ(vals[i], expect[i]);
}

TEST(ServiceProtocol, AxisFromParam) {
  EXPECT_EQ(axis_from_param("snr"), sim::SurrogateAxis::kSnrDb);
  EXPECT_EQ(axis_from_param("power"), sim::SurrogateAxis::kRxPowerDbm);
  EXPECT_THROW(axis_from_param("p1db"), std::invalid_argument);
}

TEST(ServiceProtocol, SweepRequestRoundTripAndExpansion) {
  SweepRequest req;
  req.param = "snr";
  req.from = 4.0;
  req.to = 10.0;
  req.step = 3.0;
  req.base = fancy_link();
  req.rule.max_packets = 64;
  req.bin_width_db = 0.5;
  req.use_store = false;
  const SweepRequest back = SweepRequest::from_json(req.to_json());
  EXPECT_EQ(back.param, req.param);
  EXPECT_EQ(back.from, req.from);
  EXPECT_EQ(back.to, req.to);
  EXPECT_EQ(back.step, req.step);
  EXPECT_EQ(back.bin_width_db, req.bin_width_db);
  EXPECT_EQ(back.use_store, req.use_store);
  EXPECT_EQ(back.rule.max_packets, req.rule.max_packets);

  const std::vector<core::LinkConfig> pts = back.expand();
  ASSERT_EQ(pts.size(), 3u);  // 4, 7, 10
  EXPECT_EQ(pts[0].snr_db, 4.0);
  EXPECT_EQ(pts[1].snr_db, 7.0);
  EXPECT_EQ(pts[2].snr_db, 10.0);
  // Expansion must match what the CLI would build from the same base.
  core::LinkConfig manual = fancy_link();
  manual.snr_db = 7.0;
  EXPECT_EQ(core::link_fingerprint(pts[1]), core::link_fingerprint(manual));
}

TEST(ServiceProtocol, EvalRequestRoundTrip) {
  EvalRequest req;
  req.param = "power";
  req.links = {core::default_link_config(), fancy_link()};
  req.rule.max_packets = 48;
  req.bin_width_db = 0.25;
  const EvalRequest back = EvalRequest::from_json(req.to_json());
  ASSERT_EQ(back.links.size(), 2u);
  EXPECT_EQ(back.param, "power");
  EXPECT_EQ(back.bin_width_db, 0.25);
  EXPECT_EQ(core::link_fingerprint(back.links[1]),
            core::link_fingerprint(req.links[1]));
}

TEST(ServiceProtocol, ResultsResponseRoundTrip) {
  core::BerResult r;
  r.packets = 16;
  r.bits = 16000;
  r.bit_errors = 12;
  core::DedupStats stats;
  stats.queries = 2;
  stats.distinct = 1;
  stats.warm = 0;
  stats.cold = 1;
  const Json resp = results_response({7.0, 7.0}, {r, r}, stats);
  const ResultsReply reply = results_reply_from_json(resp);
  ASSERT_EQ(reply.values.size(), 2u);
  ASSERT_EQ(reply.results.size(), 2u);
  EXPECT_EQ(reply.values[0], 7.0);
  EXPECT_EQ(reply.results[1].bit_errors, 12u);
  EXPECT_EQ(reply.stats.queries, 2u);
  EXPECT_EQ(reply.stats.cold, 1u);
}

TEST(ServiceProtocol, ResultsResponseBytesAreStable) {
  // Clients compare warm replies byte for byte, so the text of every
  // number is part of the protocol: a golden reply pins it.
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
  sur.from_surrogate = true;  // ber_ci_rel stays +inf: the "inf" string
  core::DedupStats stats;
  stats.queries = 3;
  stats.distinct = 2;
  stats.warm = 1;
  stats.cold = 1;
  const std::string mc_json =
      "{\"packets\":48,\"packets_lost\":1,\"packet_errors\":5,"
      "\"bits\":23040,\"bit_errors\":37,"
      "\"evm_rms_avg\":0.04285495643554834,\"ber_ci_rel\":0.32171717171717,"
      "\"wall_seconds\":0.125,\"converged\":true,\"model_ber\":-1,"
      "\"model_per\":-1,\"from_surrogate\":false}";
  const std::string sur_json =
      "{\"packets\":0,\"packets_lost\":0,\"packet_errors\":0,\"bits\":0,"
      "\"bit_errors\":0,\"evm_rms_avg\":0,\"ber_ci_rel\":\"inf\","
      "\"wall_seconds\":0,\"converged\":false,\"model_ber\":0.00033,"
      "\"model_per\":0.012345679012345678,\"from_surrogate\":true}";
  EXPECT_EQ(results_response({6.0, 7.5, 0.1}, {mc, sur, mc}, stats).dump(),
            "{\"ok\":true,\"values\":[6,7.5,0.1],\"results\":[" + mc_json +
                "," + sur_json + "," + mc_json +
                "],\"stats\":{\"queries\":3,\"distinct\":2,\"warm\":1,"
                "\"cold\":1}}");
}

TEST(ServiceProtocol, ErrorResponseThrowsClientSide) {
  try {
    results_reply_from_json(error_response("store melted"));
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("store melted"), std::string::npos);
  }
}

TEST(ServiceProtocol, MalformedLinkJsonThrows) {
  Json j = Json::object();
  j.set("rate_mbps", Json::number(7.0));  // not a valid 802.11a rate
  EXPECT_THROW(link_from_json(j), std::runtime_error);
}

TEST(ServiceProtocol, LinkCodecRejectsLinksNoPacketCanRun) {
  // Each of these throws inside every packet; the codec refuses them so a
  // bad link fails its own request and not a pass shared with others.
  std::vector<core::LinkConfig> bad(6, fancy_link());
  bad[0].psdu_bytes = 0;
  bad[1].psdu_bytes = 5000;
  bad[2].interferer->offset_hz = 4e7;  // |offset| + 10 MHz > 40 MHz at 4x
  bad[3].rf.bb_bandwidth_factor = 0.0;
  bad[4].rf.bb_bandwidth_factor = 5.0;  // 43 MHz corner at 80 Msps
  bad[5].sco_ppm = -2e6;
  for (std::size_t b = 0; b < bad.size(); ++b) {
    const Json j = link_to_json(bad[b]);
    EXPECT_THROW(link_from_json(j), std::invalid_argument) << b;
  }

  // The edges of each rule still pass, and an idealized front-end has no
  // baseband filter to check.
  std::vector<core::LinkConfig> good(4, fancy_link());
  good[0].psdu_bytes = 4095;
  good[1].interferer->offset_hz = -30e6;  // |offset| + 10 MHz = fs/2
  good[2].sco_ppm = -999999.0;
  good[3].rf_engine = core::RfEngine::kNone;
  good[3].rf.bb_bandwidth_factor = 0.0;
  for (std::size_t g = 0; g < good.size(); ++g) {
    const core::LinkConfig back = link_from_json(link_to_json(good[g]));
    EXPECT_EQ(core::link_fingerprint(back), core::link_fingerprint(good[g]))
        << g;
  }
}

core::LinkConfig cheap_config(double snr) {
  core::LinkConfig cfg = core::default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = snr;
  return cfg;
}

sim::StoppingRule small_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.35;
  rule.min_errors = 25;
  rule.min_packets = 8;
  rule.max_packets = 40;
  return rule;
}

TEST(ServiceProtocol, DropRequestRoundTrip) {
  scenario::DropConfig cfg;
  cfg.num_stations = 7;
  cfg.num_steps = 3;
  cfg.area_half_m = 25.0;
  cfg.tx_power_dbm = 14.5;
  cfg.seed = 99;
  cfg.link = cheap_config(0.0);
  cfg.snr_bin_db = 1.0;
  cfg.rule = small_rule();
  cfg.interferers.push_back({{3.0, -4.0}, 10.0, 312.5e3});
  DropRequest req;
  req.cfg = cfg;

  std::string err;
  const auto j = Json::parse(req.to_json().dump(), &err);
  ASSERT_TRUE(j.has_value()) << err;
  const scenario::DropConfig back = DropRequest::from_json(*j).cfg;
  EXPECT_EQ(back.num_stations, 7u);
  EXPECT_EQ(back.num_steps, 3u);
  EXPECT_EQ(back.area_half_m, 25.0);
  EXPECT_EQ(back.tx_power_dbm, 14.5);
  EXPECT_EQ(back.seed, 99u);
  EXPECT_EQ(back.snr_bin_db, 1.0);
  EXPECT_EQ(back.rule.max_packets, small_rule().max_packets);
  ASSERT_EQ(back.interferers.size(), 1u);
  EXPECT_EQ(back.interferers[0].tx_power_dbm, 10.0);
  EXPECT_EQ(back.interferers[0].offset_hz, 312.5e3);
  EXPECT_EQ(back.link.psdu_bytes, 60u);
}

}  // namespace
}  // namespace wlansim::service
