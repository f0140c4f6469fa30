// wlansim_daemon — persistent simulation service.
//
//   wlansim_daemon --socket /tmp/wlansim.sock [--store DIR]
//                  [--checkpoint-dir DIR] [--threads N]
//                  [--checkpoint-every N] [--paused]
//
// Listens on a Unix-domain stream socket for newline-delimited JSON
// requests (src/service/protocol.h), schedules sweep/eval/drop jobs on the
// shared engine, coalesces concurrent requests into pooled deduplicated
// passes, and serves warm keys from the content-addressed calibration
// store. SIGINT/SIGTERM (or an {"op":"shutdown"} request) wind the daemon
// down gracefully: in-flight cold passes are preempted at the next wave
// boundary with their progress checkpointed, so a restarted daemon resumes
// instead of recomputing.
//
// Every cold pass runs in this process on one thread pool: --threads N
// threads, or the shared pool at hardware concurrency when N is 0. A
// request line longer than service::kMaxRequestBytes (1 MiB) is refused
// and its connection closed.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <exception>
#include <string>

#include "cli_link.h"
#include "core/cliargs.h"
#include "service/server.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

int run(int argc, char** argv) {
  using namespace wlansim;
  const core::CliArgs args = core::CliArgs::parse(argc, argv, 1);
  service::Server::Options opts;
  opts.socket_path = args.get_string("socket", "/tmp/wlansim.sock");
  opts.scheduler.store_dir = args.get_string("store", "");
  opts.scheduler.checkpoint_dir = args.get_string("checkpoint-dir", "");
  opts.scheduler.threads =
      static_cast<std::size_t>(args.get_long("threads", 0));
  opts.scheduler.checkpoint_every_waves =
      static_cast<std::size_t>(args.get_long("checkpoint-every", 1));
  opts.scheduler.start_paused = args.has("paused");
  tools::fail_on_unused(args);

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  service::Server server(std::move(opts));
  std::printf("wlansim-daemon listening on %s\n",
              server.socket_path().string().c_str());
  std::printf("store: %s\n",
              server.scheduler().store_dir().string().c_str());
  std::fflush(stdout);
  server.run(&g_stop);
  std::printf("wlansim-daemon stopped\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlansim-daemon: %s\n", e.what());
    return 1;
  }
}
