// wlansim_client — submit jobs to a running wlansim_daemon.
//
//   wlansim_client ping     --socket /tmp/wlansim.sock
//   wlansim_client stats    --socket /tmp/wlansim.sock
//   wlansim_client shutdown --socket /tmp/wlansim.sock
//   wlansim_client sweep    --socket /tmp/wlansim.sock --param snr|power
//                           --from A --to B --step S [link flags]
//                           [stopping-rule flags] [--bin-width W]
//                           [--no-store] [--csv out.csv]
//   wlansim_client drop     --socket /tmp/wlansim.sock [drop flags]
//
// The sweep subcommand accepts the same link and stopping-rule flags as
// `wlansim sweep` (tools/cli_link.h — one parser, two binaries) and renders
// the daemon's results through the same sim::SweepResult table, so a
// daemon-served sweep and `wlansim sweep --surrogate` over the same flags
// print byte-identical output (modulo the deliberately non-deterministic
// wall_s column, which is exactly 0 for store-served points on both paths).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "cli_drop.h"
#include "cli_link.h"
#include "core/cliargs.h"
#include "service/protocol.h"
#include "service/server.h"
#include "sim/sweep.h"

namespace {

using namespace wlansim;

/// One round trip: connect, send `request` + '\n', read one response line.
/// Connect retries with backoff for a bounded window (default 5 s,
/// $WLANSIM_CONNECT_TIMEOUT_MS to change it), so racing a just-started
/// daemon waits for its socket instead of failing — CI smoke needs no
/// sleep loops.
std::string round_trip(const std::string& socket_path,
                       const std::string& request) {
  int timeout_ms = 5000;
  if (const char* env = std::getenv("WLANSIM_CONNECT_TIMEOUT_MS")) {
    if (*env != '\0') timeout_ms = std::atoi(env);
  }
  const int fd = service::connect_unix_retry(socket_path, timeout_ms);
  if (fd < 0) {
    throw std::runtime_error("connect(" + socket_path + "): " +
                             std::strerror(errno) +
                             " (is wlansim_daemon running?)");
  }

  const std::string line = request + "\n";
  std::size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(std::string("send(): ") + std::strerror(err));
    }
    off += static_cast<std::size_t>(n);
  }

  std::string buffer;
  char chunk[4096];
  for (;;) {
    const std::size_t nl = buffer.find('\n');
    if (nl != std::string::npos) {
      ::close(fd);
      return buffer.substr(0, nl);
    }
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      throw std::runtime_error(std::string("recv(): ") + std::strerror(err));
    }
    if (n == 0) {
      ::close(fd);
      throw std::runtime_error("daemon closed the connection mid-response");
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

service::Json parse_response(const std::string& line) {
  std::string err;
  const std::optional<service::Json> j = service::Json::parse(line, &err);
  if (!j) throw std::runtime_error("malformed response: " + err);
  return *j;
}

int cmd_simple(const std::string& op, const core::CliArgs& args) {
  const std::string sock = args.get_string("socket", "/tmp/wlansim.sock");
  tools::fail_on_unused(args);
  service::Json req = service::Json::object();
  req.set("op", service::Json::string(op));
  const std::string reply = round_trip(sock, req.dump());
  std::printf("%s\n", reply.c_str());
  const service::Json j = parse_response(reply);
  const service::Json* ok = j.find("ok");
  return (ok && ok->is_bool() && ok->as_bool()) ? 0 : 1;
}

int cmd_sweep(const core::CliArgs& args) {
  const std::string sock = args.get_string("socket", "/tmp/wlansim.sock");
  const std::string csv = args.get_string("csv", "");

  service::SweepRequest sweep;
  sweep.param = args.get_string("param", "snr");
  sweep.from = args.get_double("from", 5.0);
  sweep.to = args.get_double("to", 25.0);
  sweep.step = args.get_double("step", 2.0);
  if (sweep.step <= 0.0 || sweep.to < sweep.from)
    throw std::invalid_argument("sweep needs --from <= --to and --step > 0");
  sweep.base = tools::link_from_args(args);
  // Absent stopping flags mean the same default adaptive rule the CLI's
  // --surrogate path uses (core::SurrogateOptions' default).
  sweep.rule =
      core::stopping_rule_from_args(args).value_or(sim::StoppingRule{});
  sweep.bin_width_db = args.get_double("bin-width", 0.0);
  sweep.use_store = !args.has("no-store");
  tools::fail_on_unused(args);

  service::Json req = sweep.to_json();
  const service::ResultsReply reply =
      service::results_reply_from_json(parse_response(round_trip(
          sock, req.dump())));
  if (reply.results.size() != reply.values.size())
    throw std::runtime_error("daemon returned a mismatched result count");

  // The exact row set `wlansim sweep --surrogate` builds — same keys, same
  // values — rendered through the same table writer.
  sim::SweepResult res;
  res.param_name = sweep.param;
  res.rows.reserve(reply.values.size());
  for (std::size_t k = 0; k < reply.values.size(); ++k) {
    const core::BerResult& r = reply.results[k];
    std::map<std::string, double> row{
        {"ber", r.ber()}, {"per", r.per()}, {"evm", r.evm_rms_avg}};
    row["packets"] = static_cast<double>(r.packets);
    row["bit_errors"] = static_cast<double>(r.bit_errors);
    row["ci_rel"] = r.ber_ci_rel;
    row["converged"] = r.converged ? 1.0 : 0.0;
    row["wall_s"] = r.wall_seconds;
    row["surrogate"] = r.from_surrogate ? 1.0 : 0.0;
    res.rows.push_back(sim::SweepRow{reply.values[k], std::move(row)});
  }

  std::fputs(res.to_table().c_str(), stdout);
  if (!csv.empty()) {
    std::ofstream os(csv);
    os << res.to_csv();
    std::printf("wrote %s\n", csv.c_str());
  }
  return 0;
}

int cmd_drop(const core::CliArgs& args) {
  const std::string sock = args.get_string("socket", "/tmp/wlansim.sock");
  // Same flag surface as `wlansim drop` (tools/cli_drop.h — one parser,
  // two binaries). --threads and --calib-dir parse but stay local: the
  // daemon evaluates with ITS threads against ITS store.
  service::DropRequest drop;
  drop.cfg = tools::drop_config_from_args(args);
  tools::fail_on_unused(args);

  const scenario::DropSummary summary = service::drop_summary_from_json(
      parse_response(round_trip(sock, drop.to_json().dump())));
  // The CLI's exact table bytes (scenario::drop_summary_table on both
  // ends) — a daemon-served drop prints what `wlansim drop` prints.
  std::fputs(scenario::drop_summary_table(summary).c_str(), stdout);
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: wlansim_client <ping|stats|shutdown|sweep|drop> "
               "--socket PATH [options]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  try {
    const core::CliArgs args = core::CliArgs::parse(argc, argv, 2);
    if (cmd == "ping" || cmd == "stats" || cmd == "shutdown")
      return cmd_simple(cmd, args);
    if (cmd == "sweep") return cmd_sweep(args);
    if (cmd == "drop") return cmd_drop(args);
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wlansim_client: %s\n", e.what());
    return 1;
  }
}
