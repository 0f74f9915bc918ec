/// \file workload.hpp
/// \brief The benchmark's four workloads, deployed through the public
///        control plane: each manifest node becomes one Runtime built with
///        control::build_fragment inside this process.
///
/// The task bodies are the shipped ones (control::find_pipeline), except
/// the source and the sink, which the benchmark owns:
///   * the source stamps each item's creation time (tracker) or due time
///     (relay, open loop);
///   * the sink checks every result and records its latency.
/// Every shipped stage body is wrapped so the traced run can time it.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_math.hpp"
#include "checks.hpp"
#include "control/fragment.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"

namespace perfbench {

std::int64_t now_ns();
/// CPU time consumed by the calling thread.
std::int64_t thread_cpu_ns();

struct WorkloadDef {
  std::string name;
  /// Registered pipeline the manifest deploys ("tracker" or "relay").
  std::string pipeline;
  std::string aru;
  /// Node names; a single node means an in-process deployment.
  std::vector<std::string> nodes;
  /// task/channel -> node (empty: everything on nodes[0]).
  std::vector<std::pair<std::string, std::string>> placement;
  /// One-sentence rationale.
  std::string why;
  /// Listed in BENCHMARK.json. The two relays are not: on a shared VM
  /// their latency and footprint swing by 25-80% between runs (host CPU
  /// steal and recorder reallocation stalls pile up a backlog behind the
  /// open-loop source), so they run only on request.
  bool benchmarked = true;

  bool net() const { return nodes.size() > 1; }
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadDef>& workloads();
const WorkloadDef* find_workload(const std::string& name);

/// Relay load: 100 items of 1 KiB every 1 ms tick (100k items/s).
inline constexpr std::int64_t kRelayTickNs = 1'000'000;
inline constexpr std::int64_t kRelayPerTick = 100;
inline constexpr std::size_t kRelayItemBytes = 1024;
/// Tracker output check: a reported target lies within this distance of
/// the truth (the blob radius, 28 px, plus the 8 px sampling stride's
/// half-diagonal margin).
inline constexpr double kTrackerBoundPx = 34.0;

/// Sum and count of span durations, optionally keeping every sample for
/// percentiles.
struct Span {
  std::int64_t n = 0;
  std::int64_t sum_ns = 0;
  /// Thread CPU time inside the span, where the caller measured it.
  std::int64_t cpu_ns = 0;
  std::vector<double> samples_us;

  void add(std::int64_t ns, bool keep, std::int64_t cpu = 0) {
    ++n;
    sum_ns += ns;
    cpu_ns += cpu;
    if (keep) samples_us.push_back(static_cast<double>(ns) / 1e3);
  }
  double mean_us() const { return n > 0 ? static_cast<double>(sum_ns) / 1e3 / n : 0.0; }
};

/// Per-task spans. Written only by the task's own thread; read after the
/// runtime joined it.
struct TaskProbe {
  std::string name;
  /// Benchmark-owned source or sink (false: a wrapped shipped body).
  bool owned = false;
  std::int64_t iters = 0;
  std::int64_t body_ns = 0;
  std::int64_t body_cpu_ns = 0;
  /// Body return -> next body call (periodicity_sync and ARU pacing).
  std::int64_t pace_ns = 0;
  std::int64_t pace_cpu_ns = 0;
  /// Open-loop source: sleeping until the next due tick.
  std::int64_t tick_wait_ns = 0;
  /// Benchmark work inside owned bodies (payload fill, output checks).
  std::int64_t bench_ns = 0;
  std::int64_t last_return = 0;
  std::int64_t last_return_cpu = 0;
  Span make_item, put, net_put, get, render;
  double stp_sum_us = 0.0;
  std::int64_t stp_n = 0;
};

/// What the sink saw during one measured window.
struct SinkWindow {
  std::int64_t results = 0;
  /// Tracker displays where a detector reported no target (not a failure:
  /// its motion mask and frame are independently the latest ones, so the
  /// mask can miss the target).
  std::int64_t misses = 0;
  std::vector<double> latency_ms;
  /// Tracker, traced window: latency of each displayed record from its
  /// own frame (the postmortem analyzer's per-emit definition).
  std::vector<double> record_latency_ms;
  CheckTally checks;
};

/// Creation instants and delivery marks by timestamp, shared by the
/// tracker source (writer) and sink (reader). Fixed-capacity two-level
/// table so neither side ever reallocates under the other.
class StampTable {
 public:
  static constexpr std::int64_t kBlock = 1 << 16;
  static constexpr std::int64_t kBlocks = 1024;

  StampTable();
  ~StampTable();
  StampTable(const StampTable&) = delete;
  StampTable& operator=(const StampTable&) = delete;

  /// Source thread only. False once the table is full.
  bool stamp(std::int64_t ts, std::int64_t t_ns);
  /// Creation instant of `ts` (0 if never stamped).
  std::int64_t created(std::int64_t ts) const;
  void mark_reached(std::int64_t ts);
  bool reached(std::int64_t ts) const;

 private:
  struct Block {
    std::atomic<std::int64_t> created[kBlock];
    std::atomic<std::uint8_t> reached[kBlock];
  };
  Block* block(std::int64_t ts) const;
  std::atomic<Block*> blocks_[kBlocks];
};

/// Instrumentation shared by one deployment's source, sink and wrapped
/// stages, plus the measurement-window state the measuring thread flips.
struct Probe {
  std::uint64_t seed = 1;
  bool relay = false;
  /// 0 = not measuring, 1 = untraced window, 2 = traced window.
  std::atomic<int> window{0};
  /// Set to make the source stop producing (end of the run).
  std::atomic<bool> stop_source{false};
  /// Next timestamp the source will produce (its items so far).
  std::atomic<std::int64_t> next_ts{0};
  /// First sink result (0 = none yet).
  std::atomic<std::int64_t> first_result_ns{0};
  /// Relay: timestamps the sink received in order so far.
  std::atomic<std::int64_t> delivered{0};

  std::deque<TaskProbe> tasks;
  SinkWindow sink[3];
  StampTable stamps;
  Lateness lateness;

  bool traced() const { return window.load(std::memory_order_relaxed) == 2; }
  TaskProbe& add_task(const std::string& name, bool owned);
};

/// One node of a deployment. The fragment is declared after the runtime
/// so it is destroyed first (its proxies unregister from the runtime's
/// registry).
struct Node {
  std::string name;
  std::unique_ptr<stampede::Runtime> rt;
  stampede::control::Fragment frag;
  /// Channel gauges (occupancy, frontier) mirrored by the runtime.
  std::vector<std::pair<std::string, stampede::telemetry::Gauge*>> occupancy;
  std::vector<std::pair<std::string, stampede::telemetry::Gauge*>> frontier;
};

/// A running deployment of one workload.
class Deployment {
 public:
  /// Builds every node's fragment and starts runtimes and servers. The
  /// probe must outlive the deployment.
  Deployment(const WorkloadDef& def, std::uint64_t seed, Probe& probe);
  ~Deployment();
  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Stops servers and runtimes (idempotent). Call before take_trace.
  void stop();

  std::vector<Node>& nodes() { return nodes_; }
  /// Construction start (for setup time).
  std::int64_t t_begin() const { return t_begin_; }
  /// Total time spent in control::build_fragment.
  std::int64_t build_ns() const { return build_ns_; }
  /// Sum of MemoryTracker::total_bytes over the runtimes.
  std::int64_t live_bytes();

 private:
  /// Builds every node's fragment, then starts runtimes and servers.
  void start_nodes(const WorkloadDef& def, const stampede::control::Manifest& m,
                   const stampede::control::PipelineSpec& spec);

  std::int64_t t_begin_ = 0;
  std::int64_t build_ns_ = 0;
  bool stopped_ = false;
  std::vector<Node> nodes_;
};

}  // namespace perfbench
