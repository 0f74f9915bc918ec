#include "report.hpp"

#include <cmath>
#include <cstdio>

namespace perfbench {

const std::vector<std::string>& all_tasks() {
  static const std::vector<std::string> tasks = {"digitizer", "background", "histogram",
                                                 "detect1",   "detect2",    "gui"};
  return tasks;
}

const std::vector<std::string>& all_channels() {
  static const std::vector<std::string> channels = {"frames", "masks", "hists", "loc1",
                                                    "loc2"};
  return channels;
}

std::vector<Metric> end_to_end_names() {
  return {
      {"sink_per_s", "1/s"},       {"latency_p50_ms", "ms"}, {"useful_pct", "%"},
      {"cpu_us_per_result", "us"}, {"footprint_mb", "MB"},   {"setup_s", "s"},
  };
}

std::vector<Metric> report_only_names() {
  return {{"latency_p99_ms", "ms"}, {"rss_peak_mb", "MB"}, {"failed_pct", "%"},
          {"miss_pct", "%"}};
}

std::vector<Metric> per_layer_names() {
  std::vector<Metric> m = {
      {"vision.render_us", "us"},     {"vision.background_us", "us"},
      {"vision.histogram_us", "us"},  {"vision.detect1_us", "us"},
      {"vision.detect2_us", "us"},    {"vision.miss_pct", "%"},
      {"runtime.make_item_us", "us"},
      {"runtime.put_us", "us"},       {"runtime.put_p99_us", "us"},
      {"runtime.get_us", "us"},       {"runtime.get_p99_us", "us"},
  };
  for (const std::string& t : all_tasks()) {
    m.push_back({"runtime." + t + ".service_us", "us"});
    m.push_back({"runtime." + t + ".wait_us", "us"});
  }
  m.push_back({"core.summary_stp_us", "us"});
  m.push_back({"core.source_period_us", "us"});
  for (const std::string& t : all_tasks()) m.push_back({"core." + t + ".pace_us", "us"});
  for (const std::string& c : all_channels()) {
    m.push_back({"gc." + c + ".occupancy", "items"});
    m.push_back({"gc." + c + ".frontier_lag", "ts"});
  }
  const std::vector<Metric> rest = {
      {"stats.events_per_result", "count"},
      {"stats.take_trace_ms", "ms"},
      {"telemetry.scrape_ms", "ms"},
      {"net.put_us", "us"},
      {"net.put_p99_us", "us"},
      {"net.tx_bytes_per_result", "B"},
      {"net.reconnects", "count"},
      {"net.drops", "count"},
      {"control.build_ms", "ms"},
      {"attr.vision_us", "us"},
      {"attr.runtime_us", "us"},
      {"attr.core_us", "us"},
      {"attr.net_us", "us"},
      {"attr.telemetry_us", "us"},
      {"attr.bench_us", "us"},
      {"attr.unattributed_us", "us"},
      {"attr.cpu_us_per_result", "us"},
      {"trace.overhead_cpu_us_per_result", "us"},
      {"check.analyzer_sink_ratio", "ratio"},
      {"check.analyzer_latency_ratio", "ratio"},
      {"check.analyzer_footprint_ratio", "ratio"},
      {"sys.cores_used", "cores"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::vector<Metric> fill(const std::vector<Metric>& names,
                         const std::map<std::string, double>& values) {
  std::vector<Metric> out = names;
  for (Metric& m : out) {
    const auto it = values.find(m.name);
    m.value = it == values.end() ? 0.0 : it->second;
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string result_json(bool correct, std::int64_t attempted, std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
