/// \file main.cpp
/// \brief End-to-end pipeline benchmark: entry point and measurement loop.
///
///   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///   e2e_bench --list-metrics
///
/// One run deploys one workload (workload.hpp) several times only to time
/// its set-up, then measures kDeployments fresh deployments, which share
/// `--seconds` of measured wall time, and reports each metric's median
/// over them (a shared VM's bursts move one deployment, not the median):
///   --trace 0  end-to-end metrics of untraced windows;
///   --trace 1  each deployment measures an untraced and then a traced
///              window; reports the per-layer metrics of the traced ones,
///              the layer attribution table and the tracing overhead.
/// The last stdout line is the JSON result; lines before it are a
/// readable report (machine context, metrics with units, checks).
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.hpp"
#include "report.hpp"
#include "stats/postmortem.hpp"
#include "telemetry/exporter.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

using namespace perfbench;

namespace {

constexpr int kSetupTrials = 10;  // plus each measured deployment's own set-up
constexpr int kDeployments = 8;  // measured deployments per run
/// Wall-time budget of a whole run (run.py gives the binary 170 s), and
/// the fewest measured deployments a run reports when it is spent.
constexpr std::int64_t kRunBudgetNs = 150'000'000'000;
constexpr int kMinDeployments = 5;
constexpr std::int64_t kWarmupNs = 500'000'000;
constexpr std::int64_t kFirstResultTimeoutNs = 10'000'000'000;
/// Deployments a run may redo: one that fails to come up (a loopback port
/// picked for a node's server was taken before the server bound it) or
/// that delivers nothing in a window is torn down, reported and redone.
constexpr int kMaxRedeploys = 3;
constexpr std::int64_t kSampleNs = 2'000'000;
constexpr std::int64_t kScrapeNs = 250'000'000;
constexpr std::size_t kSliceSamples = 250;
constexpr double kMb = 1024.0 * 1024.0;
/// Attribution layers (module names, plus the benchmark's own work)
/// besides the unattributed rest.
const std::vector<std::string> kLayers = {"vision", "runtime", "core", "net", "telemetry",
                                          "bench"};
/// Tolerances of the postmortem-analyzer cross-check (traced tracker).
constexpr double kAnalyzerSinkTol = 0.05;
constexpr double kAnalyzerLatencyTol = 0.15;
constexpr double kAnalyzerFootprintTol = 0.10;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool list = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = value() != "0";
    } else if (k == "--list-metrics") {
      a.list = true;
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (!a.list && (a.seconds <= 0 || a.workload.empty())) {
    throw std::invalid_argument("need --workload and a positive --seconds");
  }
  return a;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double rss_peak_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Hands memory freed by a finished deployment back to the OS, so every
/// deployment starts from the same allocator state and the peak RSS is
/// that of the largest one, not an accident of heap reuse.
void release_freed_memory() { malloc_trim(0); }

void sleep_ns(std::int64_t ns) { std::this_thread::sleep_for(std::chrono::nanoseconds(ns)); }

/// Waits for the deployment's first sink result; returns its instant.
std::int64_t wait_first_result(const Probe& probe) {
  const std::int64_t deadline = now_ns() + kFirstResultTimeoutNs;
  while (now_ns() < deadline) {
    if (const std::int64_t t = probe.first_result_ns.load(std::memory_order_relaxed); t != 0) {
      return t;
    }
    sleep_ns(200'000);
  }
  throw std::runtime_error("no sink result within " +
                           std::to_string(kFirstResultTimeoutNs / 1'000'000'000) +
                           " s of set-up");
}

/// Sum of aru_net_tx_bytes_total over one /metrics body.
double tx_bytes(const std::string& body) {
  double total = 0.0;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t end = std::min(body.find('\n', pos), body.size());
    const std::string line = body.substr(pos, end - pos);
    if (line.rfind("aru_net_tx_bytes_total", 0) == 0) {
      total += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
    }
    pos = end + 1;
  }
  return total;
}

/// One measured window.
struct Window {
  std::int64_t t0 = 0, t1 = 0;
  double cpu_s = 0.0;
  std::int64_t ts0 = 0, ts1 = 0;  // source timestamps produced at the edges
  std::vector<double> footprint;  // live item bytes samples
  std::map<std::string, double> occupancy_sum, lag_sum;
  std::int64_t gauge_samples = 0;
  Span scrape;
  double tx0 = 0.0, tx1 = 0.0;
  std::int64_t main_cpu_ns = 0;  // this (sampling) thread's CPU in the window

  double seconds() const { return static_cast<double>(t1 - t0) / 1e9; }
};

/// Scrapes every runtime's /metrics once; returns the summed tx bytes.
double scrape_all(Deployment& d, Span* span) {
  double tx = 0.0;
  for (Node& n : d.nodes()) {
    const std::uint16_t port = n.rt->metrics_port();
    if (port == 0) continue;
    const std::int64_t t0 = now_ns();
    const std::int64_t c0 = thread_cpu_ns();
    const auto body =
        stampede::telemetry::http_get("127.0.0.1", port, "/metrics", stampede::seconds(1));
    if (span != nullptr) span->add(now_ns() - t0, false, thread_cpu_ns() - c0);
    if (body) tx += tx_bytes(*body);
  }
  return tx;
}

Window measure(Deployment& d, Probe& probe, int which, double seconds, bool net,
               std::uint64_t seed) {
  Window w;
  // Sampling instants are jittered so they never lock onto a periodic
  // pattern of the workload (the relay's 1 ms ticks).
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> gap(kSampleNs / 2, 3 * kSampleNs / 2);
  const bool traced = which == 2;
  if (net) w.tx0 = scrape_all(d, nullptr);
  w.ts0 = probe.next_ts.load(std::memory_order_relaxed);
  w.cpu_s = cpu_seconds();
  w.main_cpu_ns = thread_cpu_ns();
  w.t0 = now_ns();
  probe.window.store(which, std::memory_order_relaxed);
  const std::int64_t end = w.t0 + static_cast<std::int64_t>(seconds * 1e9);
  std::int64_t next_scrape = w.t0 + kScrapeNs;
  std::int64_t tick = 0;
  for (std::int64_t t = now_ns(); t < end; t = now_ns()) {
    sleep_ns(std::min(gap(rng), end - t));
    w.footprint.push_back(static_cast<double>(d.live_bytes()));
    if (traced && ++tick % 5 == 0) {
      // Channel occupancy and DGC frontier, as each channel mirrors them
      // into its runtime's registry; lag is measured from the newest
      // source timestamp.
      const std::int64_t head = probe.next_ts.load(std::memory_order_relaxed) - 1;
      for (Node& n : d.nodes()) {
        for (const auto& [ch, g] : n.occupancy) w.occupancy_sum[ch] += static_cast<double>(g->value());
        for (const auto& [ch, g] : n.frontier) {
          w.lag_sum[ch] += static_cast<double>(std::max<std::int64_t>(0, head - g->value()));
        }
      }
      ++w.gauge_samples;
    }
    if (net && now_ns() >= next_scrape) {
      scrape_all(d, traced ? &w.scrape : nullptr);
      next_scrape += kScrapeNs;
    }
  }
  probe.window.store(0, std::memory_order_relaxed);
  w.t1 = now_ns();
  w.cpu_s = cpu_seconds() - w.cpu_s;
  w.main_cpu_ns = thread_cpu_ns() - w.main_cpu_ns;
  w.ts1 = probe.next_ts.load(std::memory_order_relaxed);
  if (net) w.tx1 = scrape_all(d, nullptr);
  return w;
}

double useful_pct(const Probe& probe, const Window& w) {
  const std::int64_t offered = w.ts1 - w.ts0;
  if (offered <= 0) return 0.0;
  std::int64_t reached = 0;
  if (probe.relay) {
    reached = std::clamp(probe.delivered.load(std::memory_order_relaxed), w.ts0, w.ts1) - w.ts0;
  } else {
    for (std::int64_t ts = w.ts0; ts < w.ts1; ++ts) reached += probe.stamps.reached(ts) ? 1 : 0;
  }
  return 100.0 * static_cast<double>(reached) / static_cast<double>(offered);
}

double median(std::vector<double> v) { return percentile(v, 50); }

/// Time-mean of evenly spaced samples, made robust to rare bursts: the
/// median of the means of consecutive slices of kSliceSamples samples
/// (about half a second each). A stall's backlog then moves one slice,
/// not the whole window's mean.
double sliced_mean(const std::vector<double>& samples) {
  std::vector<double> slices;
  for (std::size_t i = 0; i + kSliceSamples <= samples.size(); i += kSliceSamples) {
    slices.push_back(mean({samples.begin() + static_cast<std::ptrdiff_t>(i),
                           samples.begin() + static_cast<std::ptrdiff_t>(i + kSliceSamples)}));
  }
  return slices.empty() ? mean(samples) : median(slices);
}

/// Per-task totals from the runtime trace within a window.
struct TraceTotals {
  std::int64_t compute = 0, blocked = 0;
};

void print_metric(const Metric& m) {
  std::printf("  %-36s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

/// Per-layer metrics of a traced window `b` (the untraced window `a` of
/// the same deployment gives the tracing overhead), including the layer
/// attribution values and, on the tracker, the postmortem cross-check
/// ratios (print_trace_report prints them).
std::map<std::string, double> trace_layers(const WorkloadDef& def, Deployment& d,
                                           const Probe& probe, const Window& a,
                                           const Window& b) {
  const SinkWindow& sb = probe.sink[2];
  if (sb.results == 0) throw std::runtime_error("no sink results in the traced window");
  const double results = static_cast<double>(sb.results);
  std::map<std::string, TraceTotals> per_task;
  std::int64_t events = 0;
  double take_trace_ms = 0.0;
  std::map<std::string, double> v;
  for (Node& n : d.nodes()) {
    const std::int64_t t0 = now_ns();
    stampede::stats::Trace trace = n.rt->take_trace();
    take_trace_ms += static_cast<double>(now_ns() - t0) / 1e6;
    for (const auto& e : trace.events) {
      if (e.t < b.t0 || e.t >= b.t1) continue;
      ++events;
      if (e.node < 0 || static_cast<std::size_t>(e.node) >= trace.node_names.size()) continue;
      TraceTotals& tt = per_task[trace.node_names[static_cast<std::size_t>(e.node)]];
      using stampede::stats::EventType;
      if (e.type == EventType::kCompute) tt.compute += e.a;
      if (e.type == EventType::kBlocked) tt.blocked += e.a;
    }
    if (def.name == "tracker") {
      // Cross-check against the postmortem analyzer, restricted to the
      // traced window: events after it are dropped, earlier ones only set
      // the footprint level at its start.
      std::erase_if(trace.events, [&](const auto& e) { return e.t >= b.t1; });
      trace.t_begin = b.t0;
      trace.t_end = b.t1;
      const stampede::stats::Analysis an = stampede::stats::Analyzer(trace).run();
      std::vector<double> lat = sb.record_latency_ms;
      const double sink = results / b.seconds();
      const double p50 = percentile(lat, 50);
      const double fp = mean(b.footprint) / kMb;
      v["check.analyzer_sink_ratio"] = an.perf.throughput_fps / sink;
      v["check.analyzer_latency_ratio"] = an.perf.latency_ms_p50 / p50;
      v["check.analyzer_footprint_ratio"] = an.res.footprint_mb_mean / fp;
    }
  }

  // Spans of the benchmark-owned source and sink, and per-task splits.
  Span make_item, put, net_put, get;
  std::int64_t layer_vision = 0, layer_runtime = 0, layer_core = 0, layer_bench = 0;
  for (const TaskProbe& tp : probe.tasks) {
    make_item.n += tp.make_item.n;
    make_item.sum_ns += tp.make_item.sum_ns;
    for (auto [dst, src] : {std::pair{&put, &tp.put}, {&net_put, &tp.net_put}, {&get, &tp.get}}) {
      dst->n += src->n;
      dst->sum_ns += src->sum_ns;
      dst->cpu_ns += src->cpu_ns;
      dst->samples_us.insert(dst->samples_us.end(), src->samples_us.begin(), src->samples_us.end());
    }
    const TraceTotals& tt = per_task[tp.name];
    const double iters = static_cast<double>(std::max<std::int64_t>(1, tp.iters));
    // Service: the body span minus kernel work, blocking, the open-loop
    // source's tick wait, benchmark work and remote puts (the net layer).
    const std::int64_t service = std::max<std::int64_t>(
        0, tp.body_ns - tt.compute - tt.blocked - tp.tick_wait_ns - tp.bench_ns -
               tp.net_put.sum_ns);
    v["runtime." + tp.name + ".service_us"] = static_cast<double>(service) / 1e3 / iters;
    v["runtime." + tp.name + ".wait_us"] =
        static_cast<double>(tt.blocked + tp.tick_wait_ns) / 1e3 / iters;
    v["core." + tp.name + ".pace_us"] =
        static_cast<double>(tp.pace_ns) / 1e3 / std::max(1.0, iters - 1);
    if (tp.render.n > 0) v["vision.render_us"] = tp.render.mean_us();
    if (!tp.owned) v["vision." + tp.name + "_us"] = static_cast<double>(tt.compute) / 1e3 / iters;
    if (tp.stp_n > 0) v["core.summary_stp_us"] = tp.stp_sum_us / static_cast<double>(tp.stp_n);
    if (tp.name == "digitizer" || tp.name == "source") {
      v["core.source_period_us"] = b.seconds() * 1e6 / iters;
    }
    // Attribution counts CPU, not wall time: a task's body CPU splits
    // into kernel work (its kCompute, capped by the body CPU), benchmark
    // work, remote puts and the rest (the runtime's own path); the CPU
    // between a body's return and its next call is the ARU bookkeeping.
    const std::int64_t vision = std::min(tt.compute, tp.body_cpu_ns);
    layer_vision += vision;
    layer_runtime += std::max<std::int64_t>(
        0, tp.body_cpu_ns - vision - tp.bench_ns - tp.net_put.cpu_ns);
    layer_core += tp.pace_cpu_ns;
    layer_bench += tp.bench_ns;
  }
  v["runtime.make_item_us"] = make_item.mean_us();
  v["runtime.put_us"] = put.mean_us();
  v["runtime.get_us"] = get.mean_us();
  v["net.put_us"] = net_put.mean_us();
  if (!put.samples_us.empty()) v["runtime.put_p99_us"] = percentile(put.samples_us, 99);
  if (!get.samples_us.empty()) v["runtime.get_p99_us"] = percentile(get.samples_us, 99);
  if (!net_put.samples_us.empty()) v["net.put_p99_us"] = percentile(net_put.samples_us, 99);

  const double gauge_n = static_cast<double>(std::max<std::int64_t>(1, b.gauge_samples));
  for (const auto& [ch, sum] : b.occupancy_sum) v["gc." + ch + ".occupancy"] = sum / gauge_n;
  for (const auto& [ch, sum] : b.lag_sum) v["gc." + ch + ".frontier_lag"] = sum / gauge_n;
  v["vision.miss_pct"] = 100.0 * static_cast<double>(sb.misses) / results;
  v["stats.events_per_result"] = static_cast<double>(events) / results;
  v["stats.take_trace_ms"] = take_trace_ms;
  v["telemetry.scrape_ms"] = b.scrape.mean_us() / 1e3;
  v["net.tx_bytes_per_result"] = (b.tx1 - b.tx0) / results;
  std::int64_t reconnects = 0, drops = 0;
  for (Node& n : d.nodes()) {
    for (const auto& p : n.frag.proxies) {
      reconnects += p->reconnects();
      drops += p->drops();
    }
  }
  v["net.reconnects"] = static_cast<double>(reconnects);
  v["net.drops"] = static_cast<double>(drops);
  v["control.build_ms"] = static_cast<double>(d.build_ns()) / 1e6;

  // Layer attribution: self CPU per result of each layer, next to the
  // traced window's CPU per result; what no span covers stays visible.
  const double cpu_a = a.cpu_s * 1e6 / static_cast<double>(probe.sink[1].results);
  const double cpu_b = b.cpu_s * 1e6 / results;
  v["attr.vision_us"] = static_cast<double>(layer_vision) / 1e3 / results;
  v["attr.runtime_us"] = static_cast<double>(layer_runtime) / 1e3 / results;
  v["attr.core_us"] = static_cast<double>(layer_core) / 1e3 / results;
  v["attr.net_us"] = static_cast<double>(net_put.cpu_ns) / 1e3 / results;
  v["attr.telemetry_us"] = static_cast<double>(b.scrape.cpu_ns) / 1e3 / results;
  // Output checks, payload fills and this thread's sampling.
  v["attr.bench_us"] =
      static_cast<double>(layer_bench + b.main_cpu_ns - b.scrape.cpu_ns) / 1e3 / results;
  double attributed = 0.0;
  for (const std::string& layer : kLayers) attributed += v["attr." + layer + "_us"];
  v["attr.unattributed_us"] = cpu_b - attributed;
  v["attr.cpu_us_per_result"] = cpu_b;
  v["trace.overhead_cpu_us_per_result"] = cpu_b - cpu_a;
  v["sys.cores_used"] = b.cpu_s / b.seconds();
  return v;
}

/// Prints the layer attribution table, the tracing overhead and, on the
/// tracker, the postmortem cross-check, from per-layer values.
void print_trace_report(const WorkloadDef& def, std::map<std::string, double>& v) {
  const double cpu = v["attr.cpu_us_per_result"];
  std::printf("# layer attribution (%s, traced window): self CPU per sink result\n",
              def.name.c_str());
  std::printf("#   %-14s %14s %8s\n", "layer", "self cpu us", "of cpu");
  const auto row = [cpu](const std::string& name, double us) {
    std::printf("#   %-14s %14.3f %7.1f%%\n", name.c_str(), us, 100.0 * us / cpu);
  };
  for (const std::string& layer : kLayers) row(layer, v["attr." + layer + "_us"]);
  row("unattributed", v["attr.unattributed_us"]);
  row("cpu (traced)", cpu);
  std::printf("# tracing overhead: %+.3f us/result (traced %.3f vs untraced %.3f)\n",
              v["trace.overhead_cpu_us_per_result"], cpu,
              cpu - v["trace.overhead_cpu_us_per_result"]);
  if (def.name != "tracker") return;
  std::printf("# postmortem analyzer vs benchmark, traced window (ratio, tolerance):\n");
  const struct {
    const char* what;
    const char* key;
    double tol;
  } rows[] = {
      {"throughput vs sink_per_s", "check.analyzer_sink_ratio", kAnalyzerSinkTol},
      {"latency p50 vs per-record p50", "check.analyzer_latency_ratio", kAnalyzerLatencyTol},
      {"footprint vs footprint_mb", "check.analyzer_footprint_ratio", kAnalyzerFootprintTol},
  };
  for (const auto& r : rows) {
    const double ratio = v[r.key];
    std::printf("#   %-30s %.3f  %.0f%%  %s\n", r.what, ratio, r.tol * 100,
                std::abs(ratio - 1.0) <= r.tol ? "ok" : "MISMATCH");
  }
}

/// Outcome of one measured deployment.
struct Outcome {
  std::map<std::string, double> e2e;    // untraced window
  std::map<std::string, double> layer;  // traced window (--trace 1 only)
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  bool lost = false;
  double setup_s = 0.0;
};

/// Runs `attempt` until it returns; after an exception it is redone while
/// the run's redeploy budget lasts, and each redo is reported.
template <class F>
auto redeploying(int& redeploys, F&& attempt) {
  for (;;) {
    try {
      return attempt();
    } catch (const std::exception& e) {
      if (redeploys >= kMaxRedeploys) throw;
      ++redeploys;
      std::printf("# redeploy %d of at most %d: %s\n", redeploys, kMaxRedeploys, e.what());
      std::fprintf(stderr, "e2e_bench: deployment failed (%s); redeploying\n", e.what());
    }
  }
}

/// Deploys the workload once, warms it up, measures it and tears it down.
Outcome measure_deployment(const WorkloadDef& def, const Args& args, double window_s,
                           unsigned nproc) {
  Outcome out;
  Probe probe;
  Deployment d(def, args.seed, probe);
  out.setup_s = static_cast<double>(wait_first_result(probe) - d.t_begin()) / 1e9;
  sleep_ns(kWarmupNs);  // caches, pools and ARU settle

  const Window a = measure(d, probe, 1, window_s, def.net(), args.seed);
  Window b;
  if (args.trace) b = measure(d, probe, 2, window_s, def.net(), args.seed + 1);
  const Window& last = args.trace ? b : a;

  // Grace: let items offered inside the windows reach the sink.
  const std::int64_t grace_end = now_ns() + 2'000'000'000;
  if (probe.relay) {
    while (probe.delivered.load(std::memory_order_relaxed) < last.ts1 && now_ns() < grace_end) {
      sleep_ns(1'000'000);
    }
  } else {
    sleep_ns(300'000'000);
  }
  probe.stop_source.store(true);
  d.stop();

  const SinkWindow& sa = probe.sink[1];
  if (sa.results == 0) throw std::runtime_error("no sink results in the measured window");
  const double cores = a.cpu_s / a.seconds();
  std::printf("# deployment: cores_used=%.3f of nproc=%u%s; generator lateness mean %.3f us, "
              "max %.3f us; %zu latency samples (%zu beyond p99)\n",
              cores, nproc, cores >= 0.95 * nproc ? " WARNING: saturated" : "",
              probe.lateness.mean_us(), probe.lateness.max_us(), sa.latency_ms.size(),
              samples_beyond(sa.latency_ms.size(), 99));
  for (int w = 1; w <= 2; ++w) {
    out.attempted += probe.sink[w].results;
    out.failed += probe.sink[w].checks.failed();
    if (probe.sink[w].checks.failed() > 0) {
      std::printf("# FAILED checks (window %d): %s\n", w, probe.sink[w].checks.summary().c_str());
    }
  }
  if (probe.relay && probe.delivered.load() < last.ts1) {
    std::printf("# FAILED check: lost (delivered %lld of %lld offered)\n",
                static_cast<long long>(probe.delivered.load()),
                static_cast<long long>(last.ts1));
    out.lost = true;
  }

  std::vector<double> lat = sa.latency_ms;
  const double results = static_cast<double>(sa.results);
  std::printf("# latency ms: p50 %.3f  p90 %.3f  p99 %.3f  p99.9 %.3f  max %.3f\n",
              percentile(lat, 50), percentile(lat, 90), percentile(lat, 99),
              percentile(lat, 99.9), percentile(lat, 100));
  out.e2e = {
      {"sink_per_s", results / a.seconds()},
      {"latency_p50_ms", percentile(lat, 50)},
      {"latency_p99_ms", percentile(lat, 99)},
      {"useful_pct", useful_pct(probe, a)},
      {"cpu_us_per_result", a.cpu_s * 1e6 / results},
      {"footprint_mb", sliced_mean(a.footprint) / kMb},
      {"failed_pct", 100.0 * static_cast<double>(sa.checks.failed()) / results},
      {"miss_pct", 100.0 * static_cast<double>(sa.misses) / results},
      {"cores_used", cores},
  };
  if (args.trace) out.layer = trace_layers(def, d, probe, a, b);
  return out;
}

int run(const Args& args) {
  const WorkloadDef* def = find_workload(args.workload);
  if (def == nullptr) {
    std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const char* sha = std::getenv("PERFBENCH_SOURCE_SHA");
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", def->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  std::printf("# why: %s\n", def->why.c_str());
  std::printf("# nproc=%u build_type=%s compiler=%s source_sha=%s\n", nproc,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, sha ? sha : "unknown");

  // Set-up time: several deployments, each timed from Runtime
  // construction to its first sink result, then torn down.
  const std::int64_t t_run = now_ns();
  int redeploys = 0;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupTrials; ++i) {
    setup_s.push_back(redeploying(redeploys, [&] {
      Probe probe;
      Deployment d(*def, args.seed, probe);
      const double s = static_cast<double>(wait_first_result(probe) - d.t_begin()) / 1e9;
      probe.stop_source.store(true);
      d.stop();
      return s;
    }));
  }
  release_freed_memory();

  // Every metric is the median over several measured deployments. In a
  // traced run each deployment splits its time between an untraced and a
  // traced window of equal length (the difference is the tracing
  // overhead).
  const double window_s = args.seconds / kDeployments / (args.trace ? 2 : 1);
  std::vector<Outcome> outcomes;
  const std::int64_t t_measure = now_ns();
  for (int i = 0; i < kDeployments; ++i) {
    // On a host so slow that the next deployment would overrun the run's
    // budget, report the median of those measured so far.
    const std::int64_t per_deployment = i > 0 ? (now_ns() - t_measure) / i : 0;
    if (i >= kMinDeployments && now_ns() + per_deployment > t_run + kRunBudgetNs) {
      std::printf("# measured %d of %d deployments: the run's %lld s budget is spent\n", i,
                  kDeployments, static_cast<long long>(kRunBudgetNs / 1'000'000'000));
      break;
    }
    outcomes.push_back(redeploying(
        redeploys, [&] { return measure_deployment(*def, args, window_s, nproc); }));
    setup_s.push_back(outcomes.back().setup_s);
    release_freed_memory();
  }
  std::int64_t attempted = 0, failed = 0;
  bool correct = true;
  for (const Outcome& o : outcomes) {
    attempted += o.attempted;
    failed += o.failed;
    correct &= o.failed == 0 && !o.lost;
  }
  const auto medians = [&outcomes](std::map<std::string, double> Outcome::*field) {
    std::map<std::string, double> out;
    for (const auto& [name, first] : outcomes.front().*field) {
      std::vector<double> xs;
      for (const Outcome& o : outcomes) {
        const auto it = (o.*field).find(name);
        xs.push_back(it == (o.*field).end() ? 0.0 : it->second);
      }
      out[name] = median(xs);
    }
    return out;
  };
  std::map<std::string, double> values = medians(&Outcome::e2e);
  values["rss_peak_mb"] = rss_peak_mb();
  values["setup_s"] = median(setup_s);
  std::printf("# cores_used=%.3f (median) of nproc=%u%s\n", values["cores_used"], nproc,
              values["cores_used"] >= 0.95 * nproc ? "  WARNING: saturated" : "");

  std::vector<Metric> metrics;
  if (args.trace) {
    std::map<std::string, double> layer = medians(&Outcome::layer);
    print_trace_report(*def, layer);
    metrics = fill(per_layer_names(), layer);
    std::printf("# per-layer metrics (%s, traced; median of %d deployments)\n",
                def->name.c_str(), static_cast<int>(outcomes.size()));
  } else {
    metrics = fill(end_to_end_names(), values);
    std::printf("# end-to-end metrics (%s, untraced; median of %d deployments)\n",
                def->name.c_str(), static_cast<int>(outcomes.size()));
  }
  for (const Metric& m : metrics) print_metric(m);
  if (!args.trace) {
    for (const Metric& m : fill(report_only_names(), values)) {
      if (m.name != "miss_pct" || def->pipeline == "tracker") print_metric(m);
    }
  }
  std::printf("%s\n", result_json(correct, attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  try {
    const Args args = parse_args(argc, argv);
    if (args.list) {
      for (const Metric& m : end_to_end_names()) std::printf("end_to_end %s %s\n", m.name.c_str(), m.unit.c_str());
      for (const Metric& m : per_layer_names()) std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
      for (const WorkloadDef& w : workloads()) {
        if (w.benchmarked) std::printf("workload %s %s\n", w.name.c_str(), w.why.c_str());
      }
      return 0;
    }
#ifndef NDEBUG
    std::fprintf(stderr, "e2e_bench: refusing to report from a build with assertions on\n");
    return 3;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
      std::fprintf(stderr, "e2e_bench: refusing to report from a %s build (need Release)\n",
                   PERFBENCH_BUILD_TYPE);
      return 3;
    }
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
