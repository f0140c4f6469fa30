#include "service/checkpoint.h"

#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <system_error>

#include "core/fingerprint.h"

namespace wlansim::service {

namespace {

constexpr std::string_view kMagic = "wlansim-ckpt v1";

/// C99 hexfloat: bit-exact double round trips, locale-independent.
void append_double(std::string& out, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  out += buf;
}

bool parse_double(const std::string& tok, double& out) {
  if (tok.empty()) return false;
  char* end = nullptr;
  out = std::strtod(tok.c_str(), &end);
  return end == tok.c_str() + tok.size();
}

bool parse_u64(const std::string& tok, std::uint64_t& out) {
  if (tok.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
  if (errno != 0 || end != tok.c_str() + tok.size()) return false;
  out = static_cast<std::uint64_t>(v);
  return true;
}

std::string hex_encode(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (unsigned char c : bytes) {
    out.push_back(digits[c >> 4]);
    out.push_back(digits[c & 0xF]);
  }
  return out;
}

std::optional<std::string> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::string out;
  out.reserve(hex.size() / 2);
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    return -1;
  };
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]), lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

std::string cold_pass_key(std::span<const core::LinkConfig> configs,
                          const sim::StoppingRule& rule) {
  std::string key(kMagic);
  key += "|rule ";
  append_double(key, rule.target_rel_ci);
  key += ' ';
  append_double(key, rule.confidence_z);
  key += ' ';
  key += std::to_string(rule.min_errors);
  key += ' ';
  key += std::to_string(rule.min_packets);
  key += ' ';
  key += std::to_string(rule.max_packets);
  for (const core::LinkConfig& cfg : configs) {
    const std::string fp = core::link_fingerprint(cfg);
    if (fp.empty()) return {};
    key += "|cfg ";
    key += fp;
  }
  return key;
}

std::filesystem::path checkpoint_path(const std::filesystem::path& dir,
                                      std::string_view key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(key)));
  return dir / (std::string(buf) + ".ckpt");
}

std::string serialize_checkpoint(
    std::string_view key, std::span<const core::SweepPointProgress> progress) {
  std::string out(kMagic);
  out += '\n';
  out += "pid " + std::to_string(::getpid()) + '\n';
  out += "key " + hex_encode(key) + '\n';
  out += "points " + std::to_string(progress.size()) + '\n';
  for (const core::SweepPointProgress& p : progress) {
    out += std::to_string(p.packets);
    out += ' ';
    out += std::to_string(p.packets_lost);
    out += ' ';
    out += std::to_string(p.packet_errors);
    out += ' ';
    out += std::to_string(p.bits);
    out += ' ';
    out += std::to_string(p.bit_errors);
    out += ' ';
    append_double(out, p.evm_sum);
    out += ' ';
    out += std::to_string(p.evm_packets);
    out += ' ';
    out += p.stopped ? '1' : '0';
    out += ' ';
    out += p.converged ? '1' : '0';
    out += '\n';
  }
  out += "end\n";  // truncation sentinel: a partial write never parses
  return out;
}

std::optional<std::vector<core::SweepPointProgress>> parse_checkpoint(
    std::string_view text, std::string_view expected_key, long* writer_pid) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != kMagic) return std::nullopt;

  if (!std::getline(in, line) || line.rfind("pid ", 0) != 0)
    return std::nullopt;
  std::uint64_t pid = 0;
  if (!parse_u64(line.substr(4), pid)) return std::nullopt;
  if (writer_pid) *writer_pid = static_cast<long>(pid);

  if (!std::getline(in, line) || line.rfind("key ", 0) != 0)
    return std::nullopt;
  const std::optional<std::string> key = hex_decode(line.substr(4));
  if (!key || *key != expected_key) return std::nullopt;

  if (!std::getline(in, line) || line.rfind("points ", 0) != 0)
    return std::nullopt;
  std::uint64_t n = 0;
  if (!parse_u64(line.substr(7), n) || n > (1ull << 32)) return std::nullopt;

  // The count is untrusted input: size nothing from it. The loop stops at
  // the first missing point line.
  std::vector<core::SweepPointProgress> progress;
  for (std::uint64_t i = 0; i < n; ++i) {
    if (!std::getline(in, line)) return std::nullopt;
    std::istringstream ls(line);
    std::string f[9];
    for (auto& tok : f)
      if (!(ls >> tok)) return std::nullopt;
    std::string extra;
    if (ls >> extra) return std::nullopt;
    core::SweepPointProgress p;
    std::uint64_t stopped = 0, converged = 0;
    if (!parse_u64(f[0], p.packets) || !parse_u64(f[1], p.packets_lost) ||
        !parse_u64(f[2], p.packet_errors) || !parse_u64(f[3], p.bits) ||
        !parse_u64(f[4], p.bit_errors) || !parse_double(f[5], p.evm_sum) ||
        !parse_u64(f[6], p.evm_packets) || !parse_u64(f[7], stopped) ||
        stopped > 1 || !parse_u64(f[8], converged) || converged > 1) {
      return std::nullopt;
    }
    p.stopped = stopped == 1;
    p.converged = converged == 1;
    progress.push_back(p);
  }
  if (!std::getline(in, line) || line != "end") return std::nullopt;
  return progress;
}

std::optional<std::vector<core::SweepPointProgress>> load_checkpoint(
    const std::filesystem::path& dir, std::string_view key,
    std::size_t expect_points, long* writer_pid) {
  if (key.empty()) return std::nullopt;
  std::ifstream in(checkpoint_path(dir, key), std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) return std::nullopt;
  std::optional<std::vector<core::SweepPointProgress>> progress =
      parse_checkpoint(buf.str(), key, writer_pid);
  if (progress && progress->size() != expect_points) return std::nullopt;
  return progress;
}

namespace {

/// Atomic tmp+rename write; false on I/O failure (checkpointing is best
/// effort — a failed save costs redone work, never correctness).
bool save_checkpoint(const std::filesystem::path& dir, std::string_view key,
                     std::span<const core::SweepPointProgress> progress) {
  if (key.empty()) return false;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return false;

  // Same discipline as the calibration store: per-writer temp name, rename
  // publishes whole files only.
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path final_path = checkpoint_path(dir, key);
  std::filesystem::path tmp = final_path;
  tmp += ".tmp." + std::to_string(::getpid()) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed));

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << serialize_checkpoint(key, progress);
    out.flush();
    if (!out) {
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::filesystem::rename(tmp, final_path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

void remove_checkpoint(const std::filesystem::path& dir,
                       std::string_view key) {
  if (key.empty()) return;
  std::error_code ec;
  std::filesystem::remove(checkpoint_path(dir, key), ec);
}

}  // namespace

std::vector<core::BerResult> run_cold_pass_checkpointed(
    const std::filesystem::path& dir,
    std::span<const core::LinkConfig> configs, const sim::StoppingRule& rule,
    const core::SweepOptions& opts, const std::atomic<bool>* stop,
    std::size_t checkpoint_every_waves) {
  const std::string key = cold_pass_key(configs, rule);
  if (checkpoint_every_waves == 0) checkpoint_every_waves = 1;

  core::AdaptiveResume resume;
  if (!key.empty()) {
    if (auto loaded = load_checkpoint(dir, key, configs.size()))
      resume.progress = std::move(*loaded);
  }

  std::size_t wave = 0;
  resume.on_wave = [&](std::span<const core::SweepPointProgress> progress) {
    const bool stopping = stop != nullptr && stop->load();
    if (!key.empty() &&
        (stopping || ++wave % checkpoint_every_waves == 0)) {
      save_checkpoint(dir, key, progress);
    }
    return !stopping;
  };

  std::vector<core::BerResult> results;
  const bool resuming = !resume.progress.empty();
  try {
    results = core::sweep_ber_adaptive_resumable(configs, rule, opts, &resume);
  } catch (const std::invalid_argument&) {
    // A checkpoint that passed parsing but fails the engine's resume
    // validation (e.g. written under a colliding key with different
    // semantics) is treated like any other corrupt file: cold start. A
    // cold run that throws would only throw again.
    if (!resuming) throw;
    resume.progress.clear();
    resume.preempted = false;
    results = core::sweep_ber_adaptive_resumable(configs, rule, opts, &resume);
  }

  if (resume.preempted) {
    if (!key.empty()) save_checkpoint(dir, key, resume.progress);
    throw PreemptedError(
        "cold pass preempted by shutdown; progress checkpointed — resubmit "
        "the job to resume");
  }
  if (!key.empty()) remove_checkpoint(dir, key);
  return results;
}

}  // namespace wlansim::service
