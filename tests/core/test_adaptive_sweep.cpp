// The adaptive Monte-Carlo engine's determinism contract (core/parallel.h):
// results are a pure function of (configs, rule) — independent of thread
// count, scheduling, wave sizing, and TX-scene memoization — and with the
// CI test disabled every point is bit-identical to the serial per-point
// WlanLink::run_ber.
#include <gtest/gtest.h>
#include <malloc.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "core/experiments.h"
#include "core/parallel.h"
#include "rf/rfblock.h"

namespace wlansim::core {
namespace {

/// A custom front end that leaves the signal as it is.
struct Passthrough : rf::RfBlock {
  void process_tile_lanes(double*, std::size_t, std::size_t) override {}
  std::string name() const override { return "passthrough"; }
};

void expect_identical(const BerResult& a, const BerResult& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packet_errors, b.packet_errors);
  EXPECT_EQ(a.bits, b.bits);
  EXPECT_EQ(a.bit_errors, b.bit_errors);
  EXPECT_EQ(a.evm_rms_avg, b.evm_rms_avg);  // exact, not approximate
}

std::vector<LinkConfig> waterfall(std::initializer_list<double> snrs) {
  LinkConfig base = default_link_config();
  base.psdu_bytes = 60;
  std::vector<LinkConfig> points;
  for (const double snr : snrs) {
    LinkConfig c = base;
    c.snr_db = snr;
    points.push_back(c);
  }
  return points;
}

sim::StoppingRule small_rule() {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.35;
  rule.min_errors = 25;
  rule.min_packets = 8;
  rule.max_packets = 40;
  return rule;
}

sim::StoppingRule fixed_budget(std::size_t packets) {
  sim::StoppingRule rule;
  rule.target_rel_ci = 0.0;  // CI test off: a pure packet budget
  rule.max_packets = packets;
  return rule;
}

TEST(AdaptiveSweep, FixedBudgetBitIdenticalToSerialRunBer) {
  const auto points = waterfall({14.0, 18.0, 24.0});
  const sim::StoppingRule fixed = fixed_budget(18);

  std::vector<BerResult> reference;
  for (const LinkConfig& cfg : points)
    reference.push_back(WlanLink(cfg).run_ber(18));
  for (const std::size_t threads : {1u, 2u, 8u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepOptions opts;
    opts.threads = threads;
    const auto adaptive = sweep_ber_adaptive(points, fixed, opts);
    ASSERT_EQ(adaptive.size(), reference.size());
    for (std::size_t k = 0; k < adaptive.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_identical(adaptive[k], reference[k]);
      EXPECT_FALSE(adaptive[k].converged);
      // Both fill the CI stat from identical counters at the same default
      // confidence, so even the derived field must match exactly.
      EXPECT_EQ(adaptive[k].ber_ci_rel, reference[k].ber_ci_rel);
    }
  }
}

TEST(AdaptiveSweep, FixedBudgetWavesDoNotMoveBits) {
  // A fixed budget with no hook runs as one wave; an on_wave hook keeps the
  // wave boundaries (16 + 8 packets for a 24-packet budget). Both
  // schedules must give the same bits.
  const auto points = waterfall({14.0, 18.0, 24.0});
  const sim::StoppingRule fixed = fixed_budget(24);
  ASSERT_EQ(fixed.min_packets, 8u);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    SweepOptions opts;
    opts.threads = threads;
    std::size_t waves = 0;
    AdaptiveResume resume;
    resume.on_wave = [&waves](std::span<const SweepPointProgress>) {
      ++waves;
      return true;
    };
    const auto hooked =
        sweep_ber_adaptive_resumable(points, fixed, opts, &resume);
    EXPECT_EQ(waves, 2u);
    const auto one_wave = sweep_ber_adaptive(points, fixed, opts);
    ASSERT_EQ(hooked.size(), one_wave.size());
    for (std::size_t k = 0; k < hooked.size(); ++k) {
      SCOPED_TRACE("point " + std::to_string(k));
      expect_identical(hooked[k], one_wave[k]);
      EXPECT_EQ(hooked[k].ber_ci_rel, one_wave[k].ber_ci_rel);
      EXPECT_EQ(hooked[k].converged, one_wave[k].converged);
    }
  }
}

TEST(AdaptiveSweep, ThreadCountInvariance) {
  // Every pool size cuts the waves differently: shallow waves split their
  // 8-packet chunks into runs of 4, 2 or 1, and memoized claims split a
  // chunk's points across workers. None of it may move a bit.
  struct Case {
    const char* name;
    std::vector<LinkConfig> points;
    sim::StoppingRule rule;
  };
  std::vector<LinkConfig> twelve;
  for (int k = 0; k < 12; ++k)
    twelve.push_back(waterfall({10.0 + 1.5 * k}).front());
  const std::vector<Case> cases{
      {"adaptive 3 points", waterfall({12.0, 16.0, 30.0}), small_rule()},
      {"1 point, 16 packets", waterfall({14.0}), fixed_budget(16)},
      {"12 memoized points, 24 packets", twelve, fixed_budget(24)},
      {"ragged 19-packet cap", waterfall({12.0, 16.0, 30.0}),
       fixed_budget(19)},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SweepOptions opts1;
    opts1.threads = 1;
    const auto ref = sweep_ber_adaptive(c.points, c.rule, opts1);
    ASSERT_EQ(ref.size(), c.points.size());
    for (const std::size_t threads : {2u, 3u, 4u, 5u, 8u, 16u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      SweepOptions opts;
      opts.threads = threads;
      const auto got = sweep_ber_adaptive(c.points, c.rule, opts);
      ASSERT_EQ(got.size(), ref.size());
      for (std::size_t k = 0; k < got.size(); ++k) {
        SCOPED_TRACE("point " + std::to_string(k));
        expect_identical(got[k], ref[k]);
        EXPECT_EQ(got[k].converged, ref[k].converged);
        EXPECT_EQ(got[k].ber_ci_rel, ref[k].ber_ci_rel);
      }
    }
  }
}

TEST(AdaptiveSweep, SmallWaveFeedsEveryWorker) {
  // A one-point, 16-packet budget is two 8-packet chunks; on a 4-worker
  // pool it must still reach all four workers. The custom front-end's
  // factory runs once per packet on the worker running it; each call
  // waits (up to a shared deadline) until four distinct threads arrived,
  // so the sweep cannot finish on fewer workers without failing.
  std::mutex mu;
  std::condition_variable arrived;
  std::set<std::thread::id> seen;  // guarded by mu
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);

  LinkConfig cfg = waterfall({20.0}).front();
  cfg.rf_engine = RfEngine::kCustom;
  cfg.custom_rf = [&](dsp::Rng) -> std::unique_ptr<rf::RfBlock> {
    std::unique_lock<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
    arrived.notify_all();
    arrived.wait_until(lock, deadline, [&] { return seen.size() >= 4; });
    return std::make_unique<Passthrough>();
  };
  SweepOptions opts;
  opts.threads = 4;
  const auto got = sweep_ber_adaptive(std::span<const LinkConfig>(&cfg, 1),
                                      fixed_budget(16), opts);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].packets, 16u);
  const std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(seen.size(), 4u);
}

TEST(AdaptiveSweep, MemoizationInvariance) {
  const auto points = waterfall({12.0, 16.0, 30.0});
  const sim::StoppingRule rule = small_rule();

  SweepOptions on;
  on.threads = 2;
  on.memoize_tx = true;
  SweepOptions off = on;
  off.memoize_tx = false;
  const auto a = sweep_ber_adaptive(points, rule, on);
  const auto b = sweep_ber_adaptive(points, rule, off);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    SCOPED_TRACE("point " + std::to_string(k));
    expect_identical(a[k], b[k]);
    EXPECT_EQ(a[k].converged, b[k].converged);
  }
}

TEST(AdaptiveSweep, StopIndexIsPrefixRuleDecision) {
  // A noisy point must stop early (plenty of errors -> CI converges) at a
  // quantum boundary; a clean point never collects min_errors and runs to
  // the cap.
  const auto points = waterfall({10.0, 35.0});
  const sim::StoppingRule rule = small_rule();
  const auto got = sweep_ber_adaptive(points, rule, SweepOptions{});
  ASSERT_EQ(got.size(), 2u);

  EXPECT_TRUE(got[0].converged);
  EXPECT_LT(got[0].packets, rule.max_packets);
  EXPECT_EQ(got[0].packets % 8, 0u);
  EXPECT_GE(got[0].packets, rule.min_packets);
  EXPECT_GE(got[0].bit_errors, rule.min_errors);
  EXPECT_LE(got[0].ber_ci_rel, rule.target_rel_ci);

  EXPECT_FALSE(got[1].converged);
  EXPECT_EQ(got[1].packets, rule.max_packets);

  // The prefix decision replays exactly on the single-point engine.
  const BerResult single = run_ber_adaptive(points[0], rule);
  expect_identical(single, got[0]);
}

TEST(AdaptiveSweep, SinglePointMatchesSerialPrefix) {
  // The stop index consumed the in-order packet prefix, so rerunning that
  // many packets serially must reproduce every counter bit for bit.
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  cfg.snr_db = 12.0;
  const sim::StoppingRule rule = small_rule();
  const BerResult adaptive = run_ber_adaptive(cfg, rule, 2);
  WlanLink link(cfg);
  expect_identical(adaptive, link.run_ber(adaptive.packets));
}

TEST(AdaptiveSweep, RejectsZeroCap) {
  const sim::StoppingRule bad{.max_packets = 0};
  LinkConfig cfg = default_link_config();
  EXPECT_THROW((void)run_ber_adaptive(cfg, bad), std::invalid_argument);
}

TEST(AdaptiveSweep, DedicatedPoolThreadsFreeTheirLinks) {
  // threads > 0 runs each call on a pool of its own, whose threads exit
  // when the call returns. The links and filters they cached must go with
  // them: a daemon serving `--threads N` makes such calls forever.
  const auto points = waterfall({14.0, 18.0});
  sim::StoppingRule fixed;
  fixed.target_rel_ci = 0.0;
  fixed.max_packets = 16;
  SweepOptions opts;
  opts.threads = 2;
  const auto sweep = [&] { (void)sweep_ber_adaptive(points, fixed, opts); };
  // Warm-up: process-wide caches (FFT plans, filter taps) fill once.
  for (int i = 0; i < 3; ++i) sweep();
  const std::size_t before = mallinfo2().uordblks;
  for (int i = 0; i < 20; ++i) sweep();
  const std::size_t after = mallinfo2().uordblks;
  // Orphaning each call's 2 threads x 2 links kept ~0.5 MB a call (10 MB
  // over these 20); freeing them leaves only allocator noise of a few KB.
  EXPECT_LT(after, before + (std::size_t{1} << 20))
      << "heap in use grew from " << before << " to " << after
      << " bytes over 20 calls";
}

TEST(AdaptiveSweep, BadConfigFailsClosedAtEveryPosition) {
  // Configs that each throw inside a packet or a worker's link build. The
  // sweep must hand the exception to its caller wherever the config sits
  // and whichever worker draws it, and leave the pool fit for the next
  // sweep.
  std::vector<LinkConfig> bad(6, waterfall({16.0}).front());
  bad[0].psdu_bytes = 0;
  bad[1].psdu_bytes = 5000;
  bad[2].interferer =
      channel::InterfererConfig{.offset_hz = 4e7};  // > fs/2 - 10 MHz at 4x
  bad[3].rf.bb_bandwidth_factor = 0.0;
  bad[4].sco_ppm = -2e6;
  bad[5].rf_engine = RfEngine::kCustom;  // with no custom_rf factory

  const std::vector<LinkConfig> valid =
      waterfall({10.0, 12.0, 14.0, 16.0, 18.0, 20.0, 22.0, 24.0});
  sim::StoppingRule fixed;
  fixed.target_rel_ci = 0.0;
  fixed.max_packets = 8;
  SweepOptions fresh;
  fresh.threads = 2;
  const auto expected = sweep_ber_adaptive(valid, fixed, fresh);

  for (const std::size_t threads : {0u, 3u}) {  // shared pool, dedicated pool
    SweepOptions opts;
    opts.threads = threads;
    for (std::size_t b = 0; b < bad.size(); ++b) {
      for (std::size_t pos = 0; pos < valid.size(); ++pos) {
        SCOPED_TRACE(::testing::Message() << "threads " << threads << " bad "
                                          << b << " at " << pos);
        std::vector<LinkConfig> configs = valid;
        configs[pos] = bad[b];
        EXPECT_THROW((void)sweep_ber_adaptive(configs, fixed, opts),
                     std::exception);
      }
    }
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    const auto after = sweep_ber_adaptive(valid, fixed, opts);
    ASSERT_EQ(after.size(), expected.size());
    for (std::size_t k = 0; k < after.size(); ++k)
      expect_identical(after[k], expected[k]);
  }
}

}  // namespace
}  // namespace wlansim::core
