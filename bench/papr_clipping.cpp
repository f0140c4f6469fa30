// PAPR — OFDM crest factor and clipping: the constraint behind every PA
// backoff number in the MASK and TXEVM benches. Prints the PAPR CCDF of
// the 802.11a waveform, then walks the clipping tradeoff: harder clipping
// lowers the crest factor (letting the PA run hotter) but injects
// clipping noise that shows up as TX EVM.
#include <cstdio>

#include "bench_util.h"
#include "core/experiments.h"
#include "dsp/mathutil.h"
#include "phy80211a/bits.h"
#include "phy80211a/measure.h"
#include "phy80211a/transmitter.h"

namespace {

using namespace wlansim;

dsp::CVec long_waveform(double clip_db, dsp::Rng& rng) {
  phy::Transmitter::Config cfg;
  cfg.clip_papr_db = clip_db;
  phy::Transmitter tx(cfg);
  dsp::CVec wave;
  for (int i = 0; i < 8; ++i) {
    const dsp::CVec f =
        tx.modulate({phy::Rate::kMbps54, phy::random_bytes(500, rng)});
    wave.insert(wave.end(), f.begin(), f.end());
  }
  return wave;
}

double tx_evm_db(double clip_db) {
  // Direct genie loopback: clipped transmitter, clean channel, equalized
  // constellation compared against the transmitter's own reference points.
  dsp::Rng rng(3);
  phy::Transmitter::Config txc;
  txc.clip_papr_db = clip_db;
  phy::Transmitter tx(txc);
  const phy::Frame f{phy::Rate::kMbps54, phy::random_bytes(500, rng)};
  dsp::CVec ref;
  dsp::CVec wave = tx.modulate(f, &ref);
  dsp::CVec padded(200, dsp::Cplx{0.0, 0.0});
  padded.insert(padded.end(), wave.begin(), wave.end());
  padded.insert(padded.end(), 100, dsp::Cplx{0.0, 0.0});
  phy::Receiver rx;
  const phy::RxResult res = rx.receive(padded);
  if (!res.header_ok) return 0.0;
  phy::EvmCounter evm;
  const std::size_t n =
      std::min(ref.size() / phy::kNumDataCarriers, res.data_points.size());
  for (std::size_t s = 0; s < n; ++s)
    evm.add(res.data_points[s],
            std::span<const dsp::Cplx>(ref).subspan(s * phy::kNumDataCarriers,
                                                    phy::kNumDataCarriers));
  return evm.evm_db();
}

}  // namespace

int main() {
  bench::banner("PAPR", "OFDM crest factor and clipping tradeoff",
                "unclipped 802.11a shows the classic ~10 dB PAPR tail; "
                "clipping trades crest factor against TX EVM");

  dsp::Rng rng(11);
  const dsp::CVec raw = long_waveform(0.0, rng);
  const std::vector<double> thresholds = {4, 5, 6, 7, 8, 9, 10};
  const auto ccdf = phy::papr_ccdf(raw, thresholds);

  std::printf("PAPR CCDF of the unclipped waveform (%zu samples):\n", raw.size());
  std::printf("%14s  %12s\n", "thresh [dB]", "P(> thresh)");
  for (std::size_t i = 0; i < thresholds.size(); ++i)
    std::printf("%14.0f  %12.2e\n", thresholds[i], ccdf[i]);
  std::printf("peak PAPR %.1f dB\n\n", phy::papr_db(raw));

  std::printf("clipping tradeoff (54 Mbps):\n");
  std::printf("%14s  %12s  %10s\n", "clip [dB]", "peak PAPR", "TX EVM");
  double evm_unclipped = 0.0, evm_hard = 0.0;
  double papr_unclipped = 0.0, papr_hard = 0.0;
  for (double clip : {0.0, 8.0, 6.0, 4.0}) {
    dsp::Rng r2(11);
    const dsp::CVec w = long_waveform(clip, r2);
    const double p = phy::papr_db(w);
    const double e = tx_evm_db(clip);
    std::printf("%14.0f  %11.1f  %9.1f dB\n", clip, p, e);
    if (clip == 0.0) {
      evm_unclipped = e;
      papr_unclipped = p;
    }
    if (clip == 4.0) {
      evm_hard = e;
      papr_hard = p;
    }
  }

  // Shape: the CCDF tail exists (some samples beyond 8 dB), clipping
  // reduces peak PAPR substantially and costs EVM.
  const bool tail = ccdf[4] > 1e-5 && ccdf[0] > ccdf[4];
  const bool trade = papr_hard < papr_unclipped - 3.0 && evm_hard > evm_unclipped + 5.0;
  std::printf("\nCCDF tail present: %s; clipping trades PAPR for EVM: %s\n",
              tail ? "yes" : "NO", trade ? "yes" : "NO");
  const bool ok = tail && trade;
  std::printf("\nresult: %s\n", ok ? "SHAPE REPRODUCED" : "MISMATCH");
  return ok ? 0 : 1;
}
