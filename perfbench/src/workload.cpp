#include "workload.hpp"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>

#include "control/manifest.hpp"
#include "control/pipelines.hpp"
#include "net/socket.hpp"
#include "vision/records.hpp"

namespace perfbench {

using stampede::Nanos;
using stampede::TaskBody;
using stampede::TaskContext;
using stampede::TaskStatus;
namespace control = stampede::control;
namespace vision = stampede::vision;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {.name = "tracker",
       .pipeline = "tracker",
       .aru = "max",
       .nodes = {"solo"},
       .why = "Fig. 5 tracker on one node: vision kernels and frame copies do nearly all the "
              "work, so a channel or trace change should not move it"},
      {.name = "tracker-net",
       .pipeline = "tracker",
       .aru = "max",
       .nodes = {"front", "mid", "back"},
       .placement = {{"digitizer", "front"},
                     {"frames", "mid"},
                     {"masks", "mid"},
                     {"hists", "mid"},
                     {"background", "mid"},
                     {"histogram", "mid"},
                     {"detect1", "back"},
                     {"detect2", "back"},
                     {"loc1", "back"},
                     {"loc2", "back"},
                     {"gui", "back"}},
       .why = "the tracker on three loopback runtimes: 738 KB frames cross as pipelined puts "
              "and detectors make MiB-scale remote gets"},
      {.name = "relay",
       .pipeline = "relay",
       .aru = "min",
       .nodes = {"solo"},
       .why = "open-loop 100k items/s of 1 KiB with no kernel work, so the per-item path "
              "(allocation, channel, feedback, trace) is nearly all the cost",
       .benchmarked = false},
      {.name = "relay-net",
       .pipeline = "relay",
       .aru = "min",
       .nodes = {"front", "back"},
       .placement = {{"source", "front"}, {"stream", "back"}, {"sink", "back"}},
       .why = "open-loop 100k items/s of 1 KiB from a source on a second runtime: no kernel "
              "work, so the per-item path and the small-message wire path are the cost",
       .benchmarked = false},
  };
  return defs;
}

const WorkloadDef* find_workload(const std::string& name) {
  for (const WorkloadDef& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// StampTable / Probe
// ---------------------------------------------------------------------------

StampTable::StampTable() {
  for (auto& b : blocks_) b.store(nullptr, std::memory_order_relaxed);
}

StampTable::~StampTable() {
  for (auto& b : blocks_) delete b.load(std::memory_order_relaxed);
}

StampTable::Block* StampTable::block(std::int64_t ts) const {
  if (ts < 0 || ts >= kBlock * kBlocks) return nullptr;
  return blocks_[ts / kBlock].load(std::memory_order_acquire);
}

bool StampTable::stamp(std::int64_t ts, std::int64_t t_ns) {
  if (ts < 0 || ts >= kBlock * kBlocks) return false;
  Block* b = blocks_[ts / kBlock].load(std::memory_order_acquire);
  if (b == nullptr) {
    b = new Block();
    blocks_[ts / kBlock].store(b, std::memory_order_release);
  }
  b->created[ts % kBlock].store(t_ns, std::memory_order_release);
  return true;
}

std::int64_t StampTable::created(std::int64_t ts) const {
  const Block* b = block(ts);
  return b ? b->created[ts % kBlock].load(std::memory_order_acquire) : 0;
}

void StampTable::mark_reached(std::int64_t ts) {
  if (Block* b = block(ts)) b->reached[ts % kBlock].store(1, std::memory_order_relaxed);
}

bool StampTable::reached(std::int64_t ts) const {
  const Block* b = block(ts);
  return b && b->reached[ts % kBlock].load(std::memory_order_relaxed) != 0;
}

TaskProbe& Probe::add_task(const std::string& name, bool owned) {
  tasks.emplace_back();
  tasks.back().name = name;
  tasks.back().owned = owned;
  return tasks.back();
}

namespace {

void note_first_result(Probe& probe, std::int64_t t) {
  std::int64_t expected = 0;
  probe.first_result_ns.compare_exchange_strong(expected, t, std::memory_order_relaxed);
}

/// Wraps a body: in the traced window, times the body call and the gap
/// from its return to the next call (periodicity_sync plus ARU pacing).
TaskBody wrap(Probe& probe, TaskProbe& tp, TaskBody inner) {
  return [&probe, &tp, inner = std::move(inner)](TaskContext& ctx) {
    if (!probe.traced()) {
      tp.last_return = 0;
      return inner(ctx);
    }
    const std::int64_t t0 = now_ns();
    const std::int64_t c0 = thread_cpu_ns();
    if (tp.last_return != 0) {
      tp.pace_ns += t0 - tp.last_return;
      tp.pace_cpu_ns += c0 - tp.last_return_cpu;
    }
    const TaskStatus status = inner(ctx);
    tp.last_return_cpu = thread_cpu_ns();
    tp.last_return = now_ns();
    tp.body_ns += tp.last_return - t0;
    tp.body_cpu_ns += tp.last_return_cpu - c0;
    ++tp.iters;
    return status;
  };
}

void sample_stp(TaskProbe& tp, const TaskContext& ctx) {
  const Nanos s = ctx.feedback().summary();
  if (s.count() > 0) {
    tp.stp_sum_us += static_cast<double>(s.count()) / 1e3;
    ++tp.stp_n;
  }
}

/// Tracker source: renders the shipped scene into a fresh frame, stamps
/// its creation instant, and puts it. Free-running: only ARU paces it.
TaskBody tracker_source(Probe& probe, TaskProbe& tp, std::uint64_t seed, int stride,
                        bool remote_out) {
  auto gen = std::make_shared<vision::SceneGenerator>(seed);
  return [&probe, &tp, gen, stride, remote_out, next = std::int64_t{0}](
             TaskContext& ctx) mutable {
    if (probe.stop_source.load(std::memory_order_relaxed) || ctx.stopping()) {
      return TaskStatus::kDone;
    }
    const bool traced = probe.traced();
    const std::int64_t ts = next;
    const std::int64_t t0 = now_ns();
    if (!probe.stamps.stamp(ts, t0)) return TaskStatus::kDone;
    auto frame = ctx.make_item(ts, vision::kFrameBytes, {});
    const std::int64_t t1 = now_ns();
    gen->render(ts, frame->mutable_data(), stride);
    const std::int64_t t2 = now_ns();
    ctx.account_compute(Nanos{t2 - t1});
    const std::int64_t c2 = traced && remote_out ? thread_cpu_ns() : 0;
    ctx.put(0, std::move(frame));
    ++next;
    probe.next_ts.store(next, std::memory_order_relaxed);
    if (traced) {
      const std::int64_t t3 = now_ns();
      tp.make_item.add(t1 - t0, false);
      tp.render.add(t2 - t1, false);
      if (remote_out) {
        tp.net_put.add(t3 - t2, true, thread_cpu_ns() - c2);
      } else {
        tp.put.add(t3 - t2, true);
      }
      sample_stp(tp, ctx);
    }
    return TaskStatus::kContinue;
  };
}

/// Tracker sink (the GUI): checks both location records of a display and
/// records the latency from the oldest frame it shows.
TaskBody tracker_sink(Probe& probe, TaskProbe& tp, std::uint64_t seed) {
  auto gen = std::make_shared<vision::SceneGenerator>(seed);
  return [&probe, &tp, gen](TaskContext& ctx) {
    const bool traced = probe.traced();
    const std::int64_t t0 = traced ? now_ns() : 0;
    auto loc1 = ctx.get(0);
    if (!loc1) return TaskStatus::kDone;
    const std::int64_t t1 = traced ? now_ns() : 0;
    auto loc2 = ctx.get(1);
    if (!loc2) return TaskStatus::kDone;
    const std::int64_t t2 = now_ns();

    const char* failed = nullptr;
    bool miss = false;
    const std::shared_ptr<const stampede::Item> locs[2] = {loc1, loc2};
    for (int model = 0; model < 2 && failed == nullptr; ++model) {
      const stampede::Item& it = *locs[model];
      if (it.bytes() < vision::kLocationBytes) {
        failed = "record_size";
        break;
      }
      const vision::LocationRecord rec = vision::read_location(it.data());
      failed = check_tracker_record(rec, it.ts(), model, gen->scene_at(it.ts()), kTrackerBoundPx);
      miss |= rec.found == 0;
    }
    ctx.emit(*loc1);
    ctx.emit(*loc2);
    ctx.display(std::max(loc1->ts(), loc2->ts()));
    const std::int64_t t3 = now_ns();

    probe.stamps.mark_reached(loc1->ts());
    probe.stamps.mark_reached(loc2->ts());
    note_first_result(probe, t3);
    if (const int w = probe.window.load(std::memory_order_relaxed); w != 0) {
      SinkWindow& s = probe.sink[w];
      ++s.results;
      const std::int64_t created = probe.stamps.created(std::min(loc1->ts(), loc2->ts()));
      s.latency_ms.push_back(static_cast<double>(t3 - created) / 1e6);
      if (failed != nullptr) s.checks.fail(failed);
      if (miss) ++s.misses;
      if (traced) {
        for (const auto& loc : locs) {
          s.record_latency_ms.push_back(
              static_cast<double>(t3 - probe.stamps.created(loc->ts())) / 1e6);
        }
      }
    }
    if (traced) {
      tp.get.add(t1 - t0, true);
      tp.get.add(t2 - t1, true);
      tp.bench_ns += now_ns() - t2;
    }
    return TaskStatus::kContinue;
  };
}

/// Relay source: open loop. Every tick it puts kRelayPerTick items due at
/// that tick, stamped with their due instant, whatever the sink does.
TaskBody relay_source(Probe& probe, TaskProbe& tp, bool remote_out) {
  return [&probe, &tp, remote_out, next = std::int64_t{0},
          sched = std::optional<DueSchedule>{}](TaskContext& ctx) mutable {
    if (probe.stop_source.load(std::memory_order_relaxed) || ctx.stopping()) {
      return TaskStatus::kDone;
    }
    if (!sched) sched.emplace(now_ns(), kRelayTickNs, kRelayPerTick);
    const bool traced = probe.traced();
    const std::int64_t due = sched->due(next);
    const std::int64_t t_wait = now_ns();
    if (t_wait < due) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(due)));
      if (traced) tp.tick_wait_ns += now_ns() - t_wait;
    }
    for (std::int64_t i = 0; i < kRelayPerTick; ++i) {
      const std::int64_t ts = next + i;
      const std::int64_t t0 = traced ? now_ns() : 0;
      auto item = ctx.make_item(ts, kRelayItemBytes, {});
      const std::int64_t t1 = traced ? now_ns() : 0;
      fill_relay_payload(item->mutable_data(), probe.seed, ts, due);
      const std::int64_t t2 = now_ns();
      probe.lateness.add(due, t2);
      const std::int64_t c2 = traced && remote_out ? thread_cpu_ns() : 0;
      ctx.put(0, std::move(item));
      if (traced) {
        const std::int64_t t3 = now_ns();
        tp.make_item.add(t1 - t0, false);
        tp.bench_ns += t2 - t1;
        if (remote_out) {
          tp.net_put.add(t3 - t2, true, thread_cpu_ns() - c2);
        } else {
          tp.put.add(t3 - t2, true);
        }
      }
    }
    next += kRelayPerTick;
    probe.next_ts.store(next, std::memory_order_relaxed);
    if (traced) sample_stp(tp, ctx);
    return TaskStatus::kContinue;
  };
}

/// Relay sink: in-order reads; checks exactly-once order and the payload,
/// and records latency from each item's due instant.
TaskBody relay_sink(Probe& probe, TaskProbe& tp) {
  return [&probe, &tp, seq = SequenceCheck{}](TaskContext& ctx) mutable {
    const bool traced = probe.traced();
    const std::int64_t t0 = traced ? now_ns() : 0;
    auto item = ctx.get_next(0);
    if (!item) return TaskStatus::kDone;
    const std::int64_t t1 = now_ns();
    const char* failed = seq.next(item->ts());
    const char* bad_payload =
        check_relay_payload(item->data(), kRelayItemBytes, probe.seed, item->ts());
    if (failed == nullptr) failed = bad_payload;
    const std::int64_t due = relay_due_ns(item->data());
    ctx.emit(*item);
    probe.delivered.store(seq.expected(), std::memory_order_relaxed);
    note_first_result(probe, t1);
    if (const int w = probe.window.load(std::memory_order_relaxed); w != 0) {
      SinkWindow& s = probe.sink[w];
      ++s.results;
      s.latency_ms.push_back(static_cast<double>(t1 - due) / 1e6);
      if (failed != nullptr) s.checks.fail(failed);
    }
    if (traced) {
      tp.get.add(t1 - t0, true);
      tp.bench_ns += now_ns() - t1;
    }
    return TaskStatus::kContinue;
  };
}

std::uint16_t free_port() {
  auto listener = stampede::net::TcpListener::listen("127.0.0.1", 0);
  if (!listener) throw std::runtime_error("no free loopback port");
  return listener->port();
}

}  // namespace

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

Deployment::Deployment(const WorkloadDef& def, std::uint64_t seed, Probe& probe) {
  const control::PipelineSpec* shipped = control::find_pipeline(def.pipeline);
  if (shipped == nullptr) throw std::runtime_error("unknown pipeline " + def.pipeline);
  probe.seed = seed;
  probe.relay = def.pipeline == "relay";

  stampede::Options opts;
  opts.set("pipeline", def.pipeline);
  opts.set("aru", def.aru);
  opts.set("seed", std::to_string(seed));
  opts.set("scale", "0");
  opts.set("stride", "8");
  for (const std::string& n : def.nodes) {
    opts.set("node." + n, "127.0.0.1:" + std::to_string(free_port()));
  }
  if (def.net()) {
    for (const auto& [what, node] : def.placement) opts.set("place." + what, node);
  } else {
    for (const auto& t : shipped->tasks) opts.set("place." + t.name, def.nodes[0]);
    for (const auto& c : shipped->channels) opts.set("place." + c, def.nodes[0]);
  }
  control::Manifest m = control::Manifest::parse(opts);

  // The shipped spec with the benchmark's source and sink swapped in and
  // every other body wrapped for timing.
  control::PipelineSpec spec = *shipped;
  const auto remote_out = [&m](const std::string& task, const std::string& channel) {
    return m.task_node.at(task) != m.channel_node.at(channel);
  };
  spec.make_body = [&probe, &remote_out, shipped_body = shipped->make_body](
                       const std::string& task, const control::PipelineParams& p,
                       const std::shared_ptr<void>& state) -> TaskBody {
    if (task == "digitizer") {
      TaskProbe& tp = probe.add_task(task, true);
      return wrap(probe, tp,
                  tracker_source(probe, tp, p.seed, p.stride, remote_out(task, "frames")));
    }
    if (task == "gui") {
      TaskProbe& tp = probe.add_task(task, true);
      return wrap(probe, tp, tracker_sink(probe, tp, p.seed));
    }
    if (task == "source") {
      TaskProbe& tp = probe.add_task(task, true);
      return wrap(probe, tp, relay_source(probe, tp, remote_out(task, "stream")));
    }
    if (task == "sink") {
      TaskProbe& tp = probe.add_task(task, true);
      return wrap(probe, tp, relay_sink(probe, tp));
    }
    TaskProbe& tp = probe.add_task(task, false);
    return wrap(probe, tp, shipped_body(task, p, state));
  };
  control::validate(m, spec);

  t_begin_ = now_ns();
  try {
    start_nodes(def, m, spec);
  } catch (...) {
    // A node that failed to come up (say, its server lost its loopback
    // port to another socket) must not leave earlier nodes running: their
    // tasks use proxies that are destroyed with this deployment.
    stop();
    throw;
  }
}

void Deployment::start_nodes(const WorkloadDef& def, const control::Manifest& m,
                             const control::PipelineSpec& spec) {
  nodes_.reserve(def.nodes.size());
  for (const control::ManifestNode& mn : m.nodes) {
    Node& node = nodes_.emplace_back();
    node.name = mn.name;
    // Field by field: GCC 12 warns falsely on a braced RuntimeConfig.
    stampede::RuntimeConfig config;
    config.aru.mode = m.params.aru;
    config.seed = m.params.seed + static_cast<std::uint64_t>(mn.index);
    config.metrics_port = def.net() ? 0 : -1;  // net workloads are scraped
    node.rt = std::make_unique<stampede::Runtime>(std::move(config));
    const std::int64_t b0 = now_ns();
    node.frag = control::build_fragment(*node.rt, m, spec, mn.name);
    build_ns_ += now_ns() - b0;
    for (const std::string& ch : node.frag.channels) {
      const stampede::telemetry::Registry::Labels labels = {{"channel", ch}};
      auto& reg = node.rt->metrics();
      node.occupancy.emplace_back(ch, &reg.gauge("aru_channel_occupancy", "Stored items", labels));
      node.frontier.emplace_back(
          ch, &reg.gauge("aru_channel_frontier_ts", "Dead-timestamp GC frontier", labels));
    }
  }
  // Start nodes without remote links first, so every proxy's first dial
  // finds its server listening.
  std::vector<Node*> order;
  for (Node& n : nodes_) order.push_back(&n);
  std::stable_sort(order.begin(), order.end(), [](const Node* a, const Node* b) {
    return a->frag.proxies.size() < b->frag.proxies.size();
  });
  for (Node* n : order) {
    n->rt->start();
    if (n->frag.server) n->frag.server->start();
  }
}

void Deployment::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (Node& n : nodes_) n.rt->stop();
  for (Node& n : nodes_) {
    if (n.frag.server) n.frag.server->stop();
  }
}

Deployment::~Deployment() { stop(); }

std::int64_t Deployment::live_bytes() {
  std::int64_t total = 0;
  for (Node& n : nodes_) total += n.rt->memory().total_bytes();
  return total;
}

}  // namespace perfbench
