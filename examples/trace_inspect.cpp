/// \file trace_inspect.cpp
/// \brief The postmortem analysis program as a standalone tool: record a
///        tracker run to a trace file, then inspect/re-analyze it offline.
///
/// Run:   trace_inspect record out=run.trace [aru=max] [seconds=4]
///        trace_inspect analyze in=run.trace [warmup=0.1]
///        trace_inspect dump in=run.trace [head=40] [type=emit]
#include <cstdio>
#include <cstring>

#include "stats/breakdown.hpp"
#include "stats/postmortem.hpp"
#include "stats/trace_io.hpp"
#include "util/options.hpp"
#include "util/table.hpp"
#include "vision/tracker.hpp"

using namespace stampede;

namespace {

int cmd_record(const Options& cli) {
  const std::string out = cli.get_string("out", "run.trace");
  vision::TrackerOptions opts;
  opts.aru = aru::parse_mode(cli.get_string("aru", "max"));
  opts.cluster_config = static_cast<int>(cli.get_int("config", 1));
  opts.duration = seconds(cli.get_int("seconds", 4));
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));

  std::printf("recording %s for %.0fs...\n", vision::label(opts).c_str(),
              to_seconds(opts.duration));
  // Build manually (rather than run_tracker) so monitoring can be enabled.
  RuntimeConfig cfg = vision::runtime_config(opts);
  const auto monitor_ms = cli.get_int("monitor_ms", 0);
  if (monitor_ms > 0) cfg.monitor_period = millis(monitor_ms);
  Runtime rt(cfg);
  vision::build_tracker(rt, opts);
  rt.start();
  rt.clock().sleep_for(opts.duration);
  rt.stop();
  const stats::Trace trace = rt.take_trace();
  stats::save_trace_file(trace, out);
  std::printf("wrote %s: %zu events, %zu items, %zu nodes\n", out.c_str(),
              trace.events.size(), trace.items.size(), trace.node_names.size());
  return 0;
}

int cmd_analyze(const Options& cli) {
  const std::string in = cli.get_string("in", "run.trace");
  const stats::Trace trace = stats::load_trace_file(in);
  const stats::Analyzer analyzer(trace,
                                 {.warmup_fraction = cli.get_double("warmup", 0.1)});
  const stats::Analysis a = analyzer.run();
  std::printf("trace %s: %zu events over %.1f ms\n", in.c_str(), trace.events.size(),
              static_cast<double>(trace.t_end - trace.t_begin) / 1e6);
  std::printf("  throughput %.2f fps (std %.2f), latency %.0f ms (std %.0f), jitter %.0f ms\n",
              a.perf.throughput_fps, a.perf.throughput_fps_std, a.perf.latency_ms_mean,
              a.perf.latency_ms_std, a.perf.jitter_ms);
  std::printf("  footprint %.2f MB (std %.2f), IGC bound %.2f MB\n",
              a.res.footprint_mb_mean, a.res.footprint_mb_std, a.res.igc_mb_mean);
  std::printf("  wasted: %.1f%% memory, %.1f%% computation (%lld of %lld items)\n",
              a.res.wasted_mem_pct, a.res.wasted_comp_pct,
              static_cast<long long>(a.res.items_wasted),
              static_cast<long long>(a.res.items_total));
  return 0;
}

int cmd_dump(const Options& cli) {
  const std::string in = cli.get_string("in", "run.trace");
  const auto head = cli.get_int("head", 40);
  const std::string type_filter = cli.get_string("type", "");
  const stats::Trace trace = stats::load_trace_file(in);

  std::int64_t shown = 0;
  for (const auto& e : trace.events) {
    if (!type_filter.empty() && type_filter != stats::to_string(e.type)) continue;
    std::printf("%s\n", stats::format_event(trace, e).c_str());
    if (++shown >= head) break;
  }
  std::printf("(%lld of %zu events shown)\n", static_cast<long long>(shown),
              trace.events.size());
  return 0;
}

int cmd_timeline(const Options& cli) {
  const std::string in = cli.get_string("in", "run.trace");
  const stats::Trace trace = stats::load_trace_file(in);
  const stats::Analyzer analyzer(trace);

  // One occupancy sparkline per buffer node that has gauge samples.
  bool any = false;
  for (std::size_t node = 0; node < trace.node_names.size(); ++node) {
    const auto series = analyzer.gauge_series(static_cast<stats::NodeRef>(node));
    if (series.empty()) continue;
    any = true;
    std::vector<double> occupancy;
    occupancy.reserve(series.size());
    for (const auto& g : series) occupancy.push_back(static_cast<double>(g.value));
    std::printf("--- %s occupancy (items stored over time) ---\n",
                trace.node_names[node].c_str());
    std::printf("%s", ascii_chart(occupancy, 72, 6).c_str());
  }
  if (!any) {
    std::printf(
        "no gauge samples in this trace; record with monitoring enabled\n"
        "(trace_inspect record monitor_ms=20 ...)\n");
  }
  return 0;
}

int cmd_breakdown(const Options& cli) {
  const std::string in = cli.get_string("in", "run.trace");
  const stats::Trace trace = stats::load_trace_file(in);
  const stats::Analyzer analyzer(trace);
  std::printf("%s", stats::render_breakdown(stats::compute_breakdown(trace, analyzer)).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::printf(
        "usage: trace_inspect record|analyze|dump|breakdown|timeline [key=value...]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  const Options cli = Options::parse(argc - 1, argv + 1);
  try {
    if (cmd == "record") return cmd_record(cli);
    if (cmd == "analyze") return cmd_analyze(cli);
    if (cmd == "dump") return cmd_dump(cli);
    if (cmd == "breakdown") return cmd_breakdown(cli);
    if (cmd == "timeline") return cmd_timeline(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
  return 1;
}
