#include "scenario/trace.h"

#include "core/numfmt.h"

namespace wlansim::scenario {

namespace {

void append_json_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;  // keep rows one-line
    out.push_back(c);
  }
}

const char* source_of(const StationSample& s) {
  return s.result.from_surrogate ? "surrogate" : "mc";
}

void append_csv_row(std::string& row, const std::string& run_tag,
                    const StationSample& s) {
  row += run_tag;
  row += ',';
  row += std::to_string(s.step);
  row += ',';
  row += std::to_string(s.station);
  for (double v : {s.pos.x, s.pos.y, s.dist_m, s.path_loss_db, s.shadowing_db,
                   s.snr_db, s.snr_bin_db}) {
    row += ',';
    core::append_shortest(row, v);
  }
  row += ',';
  if (s.adj_level_db.has_value()) core::append_shortest(row, *s.adj_level_db);
  for (double v : {s.result.ber(), s.result.per(), s.result.evm_rms_avg,
                   s.goodput_mbps}) {
    row += ',';
    core::append_shortest(row, v);
  }
  row += ',';
  row += std::to_string(s.result.packets);
  row += ',';
  row += source_of(s);
}

void append_jsonl_row(std::string& row, const std::string& run_tag,
                      const StationSample& s) {
  row += "{\"run_tag\":\"";
  append_json_escaped(row, run_tag);
  row += "\",\"step\":";
  row += std::to_string(s.step);
  row += ",\"station\":";
  row += std::to_string(s.station);
  const auto field = [&row](const char* key, double v) {
    row += ",\"";
    row += key;
    row += "\":";
    core::append_shortest(row, v);
  };
  field("x_m", s.pos.x);
  field("y_m", s.pos.y);
  field("dist_m", s.dist_m);
  field("path_loss_db", s.path_loss_db);
  field("shadowing_db", s.shadowing_db);
  field("snr_db", s.snr_db);
  field("snr_bin_db", s.snr_bin_db);
  if (s.adj_level_db.has_value()) field("adj_level_db", *s.adj_level_db);
  field("ber", s.result.ber());
  field("per", s.result.per());
  field("evm", s.result.evm_rms_avg);
  field("goodput_mbps", s.goodput_mbps);
  row += ",\"packets\":";
  row += std::to_string(s.result.packets);
  row += ",\"source\":\"";
  row += source_of(s);
  row += "\"}";
}

}  // namespace

std::string trace_csv_header() {
  return "run_tag,step,station,x_m,y_m,dist_m,path_loss_db,shadowing_db,"
         "snr_db,snr_bin_db,adj_level_db,ber,per,evm,goodput_mbps,packets,"
         "source";
}

std::string trace_csv_row(const std::string& run_tag, const StationSample& s) {
  std::string row;
  row.reserve(200);
  append_csv_row(row, run_tag, s);
  return row;
}

std::string trace_jsonl_row(const std::string& run_tag,
                            const StationSample& s) {
  std::string row;
  row.reserve(300);
  append_jsonl_row(row, run_tag, s);
  return row;
}

TraceWriter::TraceWriter(std::ostream& out, TraceFormat format,
                         std::string run_tag)
    : out_(out), format_(format), run_tag_(std::move(run_tag)) {
  if (format_ == TraceFormat::kCsv) out_ << trace_csv_header() << '\n';
}

void TraceWriter::write(const StationSample& s) {
  line_.clear();
  if (format_ == TraceFormat::kCsv)
    append_csv_row(line_, run_tag_, s);
  else
    append_jsonl_row(line_, run_tag_, s);
  line_ += '\n';
  out_.write(line_.data(), static_cast<std::streamsize>(line_.size()));
}

SampleSink TraceWriter::sink() {
  return [this](const StationSample& s) { write(s); };
}

}  // namespace wlansim::scenario
