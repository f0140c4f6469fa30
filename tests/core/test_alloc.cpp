// Steady-state heap discipline of the packet hot path, measured through the
// counting operator new this executable links (see src/testsupport).
//
// Two contracts:
//  * the RF front-end chain itself is allocation-free once its scratch
//    buffers have grown to the packet size;
//  * a warmed-up WlanLink::run_packet stops growing — repeated packets
//    allocate no more than the first post-warm-up packet (the remaining
//    allocations are the TX/RX bit pipeline's, documented in
//    docs/PERFORMANCE.md), and the dominant oversampled scene buffers are
//    reused rather than reallocated.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/experiments.h"
#include "core/link.h"
#include "dsp/rng.h"
#include "phy80211a/receiver.h"
#include "phy80211a/transmitter.h"
#include "phy_reference.h"
#include "rf/receiver_chain.h"
#include "testsupport/alloc_hook.h"

namespace wlansim::core {
namespace {

using testhook::allocation_count;
using testhook::reset_allocation_count;

TEST(AllocationDiscipline, RfChainSteadyStateIsAllocationFree) {
  rf::DoubleConversionConfig cfg;
  rf::DoubleConversionReceiver rx(cfg, dsp::Rng(123));

  dsp::Rng rng(5);
  dsp::CVec in(4096);
  for (auto& v : in) v = rng.cgaussian(1e-9);
  dsp::CVec out;

  // Warm up: grows `out` and the chain's internal ping-pong scratch.
  rx.process_into(in, out);
  rx.reset();
  rx.reseed(dsp::Rng(99));

  reset_allocation_count();
  rx.process_into(in, out);
  EXPECT_EQ(allocation_count(), 0u)
      << "RF chain allocated in steady state";
}

TEST(AllocationDiscipline, RunPacketStopsAllocatingAfterWarmup) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;
  WlanLink link(cfg);

  link.run_packet(0);  // cold: builds workspace blocks and grows buffers
  link.run_packet(1);

  reset_allocation_count();
  link.run_packet(2);
  const std::uint64_t warm = allocation_count();

  for (std::uint64_t i = 3; i < 7; ++i) {
    reset_allocation_count();
    link.run_packet(i);
    EXPECT_LE(allocation_count(), warm)
        << "allocation count grew at packet " << i;
  }
}

TEST(AllocationDiscipline, RxDataLoopStopsAllocatingAfterWarmup) {
  // Full RX data loop (batch FFT, equalize, demap-deinterleave, Viterbi):
  // once the thread_local batch workspaces and the decoder's buffers have
  // grown to the frame size, repeated receives of same-sized frames must
  // not allocate more than the first warm receive.
  dsp::Rng rng(17);
  phy::Transmitter tx;
  const dsp::CVec frame =
      tx.modulate({phy::Rate::kMbps54, phy::random_bytes(500, rng)});
  dsp::CVec rx(200, dsp::Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.begin(), frame.end());
  rx.insert(rx.end(), 80, dsp::Cplx{0.0, 0.0});

  const phy::Receiver receiver;
  ASSERT_TRUE(receiver.receive(rx).header_ok);  // cold: grows everything

  reset_allocation_count();
  receiver.receive(rx);
  const std::uint64_t warm = allocation_count();

  for (int i = 0; i < 3; ++i) {
    reset_allocation_count();
    ASSERT_TRUE(receiver.receive(rx).header_ok);
    EXPECT_LE(allocation_count(), warm)
        << "RX data loop allocation count grew at receive " << i;
  }
}

TEST(AllocationDiscipline, BatchedRxAllocatesNoMoreThanReference) {
  dsp::Rng rng(18);
  phy::Transmitter tx;
  const dsp::CVec frame =
      tx.modulate({phy::Rate::kMbps24, phy::random_bytes(400, rng)});
  dsp::CVec rx(200, dsp::Cplx{0.0, 0.0});
  rx.insert(rx.end(), frame.begin(), frame.end());
  rx.insert(rx.end(), 80, dsp::Cplx{0.0, 0.0});

  const phy::Receiver batched;
  batched.receive(rx);  // warm both paths' persistent scratch
  phy::ref::receive({}, rx);

  reset_allocation_count();
  batched.receive(rx);
  const std::uint64_t nb = allocation_count();
  reset_allocation_count();
  phy::ref::receive({}, rx);
  const std::uint64_t nr = allocation_count();

  // The batch path exists to shed the per-symbol vectors the reference
  // loop still makes (demap output, deinterleave output, symbol window).
  EXPECT_LT(nb, nr) << "batched=" << nb << " reference=" << nr;
}

TEST(AllocationDiscipline, DirectPathShedsGraphHeapTraffic) {
  LinkConfig cfg = default_link_config();
  cfg.psdu_bytes = 60;

  cfg.packet_path = PacketPath::kAuto;
  WlanLink wave(cfg);
  cfg.packet_path = PacketPath::kGraph;
  WlanLink graph(cfg);

  wave.run_packet(0);
  graph.run_packet(0);

  reset_allocation_count();
  wave.run_packet(1);
  const std::uint64_t na = allocation_count();
  const std::uint64_t ba = testhook::allocation_bytes();
  reset_allocation_count();
  graph.run_packet(1);
  const std::uint64_t ng = allocation_count();
  const std::uint64_t bg = testhook::allocation_bytes();

  // The packet wave's remaining allocations are the 20 Msps TX/RX bit
  // pipeline; everything the graph adds on top (FIFOs, per-chunk vectors,
  // flicker calibration) must be gone. The scene runs at 4x the bit
  // pipeline's rate, so the graph's heap traffic in bytes dwarfs what the
  // wave has left.
  EXPECT_LT(na, ng) << "wave=" << na << " graph=" << ng;
  EXPECT_LT(ba * 4, bg) << "wave bytes=" << ba << " graph bytes=" << bg;
}

TEST(AllocationDiscipline, InterfererAddsLessThanOneScene) {
  // The §4.1 adjacent channel is built into the link's workspace: what it
  // still allocates per packet is its own 20 Msps transmit frame and bit
  // pipeline, not copies of the oversampled scene.
  for (const std::size_t os : {4u, 8u}) {
    SCOPED_TRACE(::testing::Message() << os << "x");
    LinkConfig cfg = default_link_config();
    cfg.psdu_bytes = 60;
    cfg.oversample = os;
    WlanLink plain(cfg);
    cfg.interferer =
        channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
    WlanLink jammed(cfg);

    const auto warm_bytes = [](WlanLink& link) {
      link.run_packet(0);
      link.run_packet(1);
      reset_allocation_count();
      link.run_packet(2);
      return testhook::allocation_bytes();
    };
    const std::uint64_t plain_bytes = warm_bytes(plain);
    const std::uint64_t jammed_bytes = warm_bytes(jammed);
    const std::uint64_t scene_bytes =
        jammed.last_rf_input().size() * sizeof(dsp::Cplx);
    ASSERT_GT(scene_bytes, 0u);
    EXPECT_LT(jammed_bytes - std::min(jammed_bytes, plain_bytes), scene_bytes)
        << "interferer link " << jammed_bytes << " B, plain link "
        << plain_bytes << " B, scene " << scene_bytes << " B";
  }
}

TEST(AllocationDiscipline, CachedLinksShareThreadScratch) {
  // A sweep worker caches one link per point it has run. What each cached
  // link keeps is its own scene buffer and rf-input probe; the padding,
  // interferer, front-end output and noise buffers are the thread's. Per
  // added link the heap grows by 1.5 oversampled scenes; with all of
  // those buffers per link it grew by 4.6.
  LinkConfig cfg = default_link_config();  // FIG6: 8x, adjacent blocker
  cfg.oversample = 8;
  cfg.rx_power_dbm = -40.0;
  cfg.interferer =
      channel::InterfererConfig{.offset_hz = 20e6, .level_db = 16.0};
  WlanLink first(cfg);
  first.run_packet(0);  // grows the thread scratch and process-wide caches
  const std::size_t scene_bytes =
      first.last_rf_input().size() * sizeof(dsp::Cplx);
  ASSERT_GT(scene_bytes, 0u);

  // Heap in use: arena chunks plus the mmapped blocks large buffers get.
  const auto heap_bytes = [] {
    const struct mallinfo2 m = mallinfo2();
    return m.uordblks + m.hblkhd;
  };
  constexpr std::size_t kLinks = 16;
  std::vector<std::unique_ptr<WlanLink>> links;
  const std::size_t before = heap_bytes();
  for (std::size_t k = 0; k < kLinks; ++k) {
    links.push_back(std::make_unique<WlanLink>(cfg));
    links.back()->run_packet(0);
  }
  const std::size_t after = heap_bytes();
  const double per_link =
      static_cast<double>(after - std::min(after, before)) / kLinks;
  EXPECT_LT(per_link, 3.0 * static_cast<double>(scene_bytes))
      << "each cached link holds " << per_link << " B; one scene is "
      << scene_bytes << " B";
}

}  // namespace
}  // namespace wlansim::core
