#include "bench_util.h"

#include <cstdio>

#include "support/text.h"

namespace drsm::bench {

std::string fmt(double v) { return strfmt("%.2f", v); }

void print_surface(const std::string& title, const char* col_param_name,
                   const std::vector<double>& p_values,
                   const std::vector<double>& col_values,
                   const std::vector<std::vector<std::string>>& cells) {
  std::printf("%s\n", title.c_str());
  std::vector<std::string> header = {std::string("p \\ ") + col_param_name};
  for (double c : col_values) header.push_back(strfmt("%.3g", c));
  std::vector<std::vector<std::string>> rows;
  for (std::size_t r = 0; r < p_values.size(); ++r) {
    std::vector<std::string> row = {strfmt("%.2f", p_values[r])};
    row.insert(row.end(), cells[r].begin(), cells[r].end());
    rows.push_back(std::move(row));
  }
  std::printf("%s\n", render_table(header, rows).c_str());
}

obs::JsonValue sim_stats_json(const sim::SimStats& stats) {
  obs::JsonValue out = obs::JsonValue::object();
  out["acc"] = stats.acc();
  out["measured_ops"] = stats.measured_ops;
  out["measured_cost"] = stats.measured_cost;
  out["reads"] = stats.reads;
  out["writes"] = stats.writes;
  out["messages"] = stats.messages;
  out["end_time"] = static_cast<double>(stats.end_time);

  obs::JsonValue mix = obs::JsonValue::object();
  for (const auto& [type, count] : stats.message_mix)
    mix[fsm::to_string(type)] = count;
  out["message_mix"] = std::move(mix);

  obs::JsonValue latency = obs::JsonValue::object();
  latency["mean"] = stats.mean_latency();
  latency["mean_read"] = stats.mean_read_latency();
  latency["mean_write"] = stats.mean_write_latency();
  latency["max"] = static_cast<double>(stats.latency_max);
  // Percentiles come from the GK sketch: actual observed latencies, never
  // values interpolated inside a bucket.
  latency["p50"] = stats.latency_quantiles.query(0.50);
  latency["p90"] = stats.latency_quantiles.query(0.90);
  latency["p99"] = stats.latency_quantiles.query(0.99);
  latency["samples"] =
      static_cast<double>(stats.latency_quantiles.count());
  out["latency"] = std::move(latency);
  return out;
}

Report::Report(std::string name)
    : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {
  root_["bench"] = name_;
  root_["results"] = obs::JsonValue::array();
}

obs::JsonValue& Report::add_result() {
  return root_["results"].push_back(obs::JsonValue::object());
}

obs::JsonValue& Report::phase(const std::string& name) {
  close_phase();
  root_["phases"][name] = obs::JsonValue::object();
  open_phase_ = name;
  phase_start_ = std::chrono::steady_clock::now();
  return root_["phases"][name];
}

void Report::close_phase() {
  if (open_phase_.empty()) return;
  root_["phases"][open_phase_]["wall_ms"] =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - phase_start_)
          .count();
  open_phase_.clear();
}

void Report::write() {
  close_phase();
  root_["wall_ms"] = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  const std::string path = "BENCH_" + name_ + ".json";
  obs::write_file(path, root_.dump(2) + "\n");
  std::printf("report: %s\n", path.c_str());
}

}  // namespace drsm::bench
