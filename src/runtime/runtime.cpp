#include "runtime/runtime.hpp"

#include <stdexcept>

#include "util/log.hpp"
#include "util/thread_name.hpp"

namespace stampede {

Runtime::Runtime(RuntimeConfig config)
    : config_(std::move(config)),
      tracker_(config_.topology.nodes()) {
  if (config_.clock == nullptr) config_.clock = &RealClock::instance();
  run_.clock = config_.clock;
  run_.tracker = &tracker_;
  run_.pool = &pool_;
  run_.recorder = &recorder_;
  run_.topology = &config_.topology;
  run_.pressure = config_.pressure;
  run_.sched_noise = config_.sched_noise;
  run_.cost_mode = config_.cost_mode;
  run_.gc = config_.gc;
  run_.aru = config_.aru;
  run_.metrics = &metrics_;
  register_builtin_metrics();
  const util::MutexLock lock(lifecycle_mu_);
  t_start_ = run_.now_ns();
}

void Runtime::register_builtin_metrics() {
  // Polled series: evaluated at scrape time under the registry mutex
  // (rank kTelemetry), reading counters the tracker already maintains —
  // zero hot-path cost and no double bookkeeping.
  metrics_.polled_gauge("aru_memory_total_bytes", "Live item bytes (MemoryTracker)",
                        {}, [this] {
                          return static_cast<double>(tracker_.total_bytes());
                        });
  metrics_.polled_gauge("aru_memory_peak_bytes", "High-water mark of total bytes",
                        {}, [this] {
                          return static_cast<double>(tracker_.peak_bytes());
                        });

  // /status sections. The channels section reads live channel state
  // (Channel::mu_, rank kBuffer — legal under the kTelemetry registry
  // lock) and renders [] once the runtime stopped: take_trace() clears
  // channels_ after stop, and the exporter is stopped before that, so
  // the guard only protects direct render_status() callers.
  metrics_.add_status("channels", [this] {
    std::string out = "[";
    if (running_.load(std::memory_order_acquire)) {
      bool first = true;
      for (const auto& ch : channels_) {
        if (!first) out += ',';
        first = false;
        const Nanos summary = ch->summary();
        out += "{\"name\":\"" + telemetry::json_escape(ch->name()) + "\"";
        out += ",\"occupancy\":" + std::to_string(ch->size());
        out += ",\"frontier_ts\":" + std::to_string(ch->frontier());
        out += ",\"summary_stp_ns\":" +
               std::to_string(aru::known(summary) ? summary.count() : 0);
        out += "}";
      }
    }
    out += "]";
    return out;
  });
  metrics_.add_status("memory", [this] {
    std::string out = "{";
    out += "\"total_bytes\":" + std::to_string(tracker_.total_bytes());
    out += ",\"peak_bytes\":" + std::to_string(tracker_.peak_bytes());
    out += "}";
    return out;
  });
}

Runtime::~Runtime() { stop(); }

std::unique_ptr<Filter> Runtime::filter_for(const std::string& override_spec) const {
  const std::string& spec = override_spec.empty() ? config_.aru.filter : override_spec;
  return make_filter(spec);
}

void Runtime::check_mutable(const char* op) const {
  if (running_.load(std::memory_order_acquire) || stopped_.load(std::memory_order_acquire)) {
    throw std::logic_error(std::string("Runtime: ") + op + " after start()");
  }
}

Channel& Runtime::add_channel(ChannelConfig config) {
  check_mutable("add_channel");
  if (!config_.topology.valid(config.cluster_node)) {
    throw std::invalid_argument("Runtime: channel placed on invalid cluster node");
  }
  const NodeId id = next_node_id();
  auto filter = filter_for(config.filter);
  graph_.add_node(NodeInfo{.id = id,
                           .kind = NodeKind::kChannel,
                           .name = config.name,
                           .cluster_node = config.cluster_node});
  recorder_.set_node_name(id, config.name);
  channels_.push_back(std::make_unique<Channel>(run_, id, std::move(config),
                                                config_.aru.mode, std::move(filter)));
  return *channels_.back();
}

Queue& Runtime::add_queue(QueueConfig config) {
  check_mutable("add_queue");
  if (!config_.topology.valid(config.cluster_node)) {
    throw std::invalid_argument("Runtime: queue placed on invalid cluster node");
  }
  const NodeId id = next_node_id();
  auto filter = filter_for(config.filter);
  graph_.add_node(NodeInfo{.id = id,
                           .kind = NodeKind::kQueue,
                           .name = config.name,
                           .cluster_node = config.cluster_node});
  recorder_.set_node_name(id, config.name);
  queues_.push_back(std::make_unique<Queue>(run_, id, std::move(config), config_.aru.mode,
                                            std::move(filter)));
  return *queues_.back();
}

TaskContext& Runtime::add_task(TaskConfig config) {
  check_mutable("add_task");
  if (!config.body) throw std::invalid_argument("Runtime: task has no body");
  if (!config_.topology.valid(config.cluster_node)) {
    throw std::invalid_argument("Runtime: task placed on invalid cluster node");
  }
  const NodeId id = next_node_id();
  auto filter = filter_for({});
  graph_.add_node(NodeInfo{.id = id,
                           .kind = NodeKind::kThread,
                           .name = config.name,
                           .cluster_node = config.cluster_node});
  recorder_.set_node_name(id, config.name);
  const std::uint64_t seed = SplitMix64(config_.seed ^ (0x5151BEEFULL + id)).next();
  tasks_.push_back(std::make_unique<TaskContext>(run_, id, std::move(config),
                                                 config_.aru.mode, std::move(filter), seed));
  return *tasks_.back();
}

void Runtime::connect(TaskContext& task, Channel& channel) {
  check_mutable("connect");
  task.add_output(channel);
  graph_.add_edge(task.id(), channel.id());
}

void Runtime::connect(TaskContext& task, Queue& queue) {
  check_mutable("connect");
  task.add_output(queue);
  graph_.add_edge(task.id(), queue.id());
}

void Runtime::connect(Channel& channel, TaskContext& task) {
  check_mutable("connect");
  task.add_input(channel);
  graph_.add_edge(channel.id(), task.id());
}

void Runtime::connect(Queue& queue, TaskContext& task) {
  check_mutable("connect");
  task.add_input(queue);
  graph_.add_edge(queue.id(), task.id());
}

NodeId Runtime::add_remote_node(const std::string& name, NodeKind kind) {
  check_mutable("add_remote_node");
  const NodeId id = next_node_id();
  graph_.add_node(NodeInfo{.id = id, .kind = kind, .name = name, .cluster_node = 0});
  recorder_.set_node_name(id, name);
  return id;
}

void Runtime::add_remote_edge(NodeId from, NodeId to) {
  check_mutable("add_remote_edge");
  graph_.add_edge(from, to);
}

void Runtime::connect(TaskContext& task, RemoteEndpoint& remote) {
  check_mutable("connect");
  task.add_output(remote);
  graph_.add_edge(task.id(), remote.id());
}

void Runtime::connect(RemoteEndpoint& remote, TaskContext& task) {
  check_mutable("connect");
  task.add_input(remote);
  graph_.add_edge(remote.id(), task.id());
}

void Runtime::start() {
  check_mutable("start");
  graph_.validate();

  // Source detection: threads with no inputs pace themselves under ARU.
  for (auto& task : tasks_) {
    task->set_source(graph_.is_source(task->id()));
  }

  const util::MutexLock lock(lifecycle_mu_);

  // Bring the exposition endpoint up before any thread spawns: a bind
  // failure throws out of start() with the runtime still cleanly stopped.
  if (config_.metrics_port >= 0 && !exporter_) {
    if (config_.metrics_port > 65535) {
      throw std::invalid_argument("Runtime: metrics_port out of range");
    }
    exporter_ = std::make_unique<telemetry::Exporter>(
        metrics_,
        telemetry::ExporterConfig{
            .host = config_.metrics_host,
            .port = static_cast<std::uint16_t>(config_.metrics_port)});
  }
  if (exporter_) exporter_->start();

  t_start_ = run_.now_ns();
  running_.store(true, std::memory_order_release);
  threads_.reserve(tasks_.size() + 1);
  for (auto& task : tasks_) {
    threads_.emplace_back([t = task.get()](std::stop_token st) {
      util::set_thread_name(t->name());
      t->run_loop(st);
    });
  }

  if (config_.monitor_period.count() > 0) {
    threads_.emplace_back([this](std::stop_token st) {
      util::set_thread_name("monitor");
      while (!st.stop_requested() && !run_.stopping.load(std::memory_order_relaxed)) {
        const std::int64_t now = run_.now_ns();
        for (const auto& ch : channels_) {
          recorder_.record(stats::Event{
              .type = stats::EventType::kGauge,
              .node = ch->id(),
              .t = now,
              .a = static_cast<std::int64_t>(ch->size()),
              .b = tracker_.node_bytes(ch->cluster_node()),
          });
        }
        for (const auto& q : queues_) {
          recorder_.record(stats::Event{
              .type = stats::EventType::kGauge,
              .node = q->id(),
              .t = now,
              .a = static_cast<std::int64_t>(q->size()),
              .b = tracker_.node_bytes(q->cluster_node()),
          });
        }
        recorder_.record(stats::Event{.type = stats::EventType::kGauge,
                                      .node = kNoNode,
                                      .t = now,
                                      .a = tracker_.total_bytes(),
                                      .b = tracker_.peak_bytes()});
        run_.clock->sleep_for(config_.monitor_period);
      }
    });
  }
  STAMPEDE_LOG(kInfo) << "runtime started: " << tasks_.size() << " tasks, "
                      << channels_.size() << " channels, " << queues_.size() << " queues";
}

bool Runtime::wait_emits(std::int64_t n, Nanos timeout) {
  const Nanos deadline = run_.clock->now() + timeout;
  while (recorder_.emits() < n) {
    if (run_.clock->now() >= deadline) return false;
    run_.clock->sleep_for(millis(2));
  }
  return true;
}

void Runtime::run_for(Nanos d) {
  if (!running()) start();
  run_.clock->sleep_for(d);
}

void Runtime::stop() {
  const util::MutexLock lock(lifecycle_mu_);
  stop_locked();
}

void Runtime::stop_locked() {
  if (!running_.load(std::memory_order_acquire) || stopped_.load(std::memory_order_acquire)) {
    stopped_.store(true, std::memory_order_release);
    return;
  }
  run_.stopping.store(true, std::memory_order_relaxed);
  // Stop serving scrapes before the data plane is torn down; the /status
  // channel section reads live channel state.
  if (exporter_) exporter_->stop();
  for (auto& th : threads_) th.request_stop();
  for (auto& ch : channels_) ch->close();
  for (auto& q : queues_) q->close();
  for (auto& th : threads_) {
    if (th.joinable()) th.join();
  }
  threads_.clear();
  running_.store(false, std::memory_order_release);
  stopped_.store(true, std::memory_order_release);
  t_stop_ = run_.now_ns();
  STAMPEDE_LOG(kInfo) << "runtime stopped after "
                      << to_millis(Nanos{t_stop_ - t_start_}) << " ms";
}

bool Runtime::drain(Nanos timeout) {
  if (!running()) return true;
  // Close the buffers: producers' puts start failing (bodies should treat
  // a failed put / null get as kDone) while consumers still drain stored
  // items.
  for (auto& ch : channels_) ch->close();
  for (auto& q : queues_) q->close();

  const Nanos deadline = run_.clock->now() + timeout;
  bool all_done = false;
  while (run_.clock->now() < deadline) {
    all_done = true;
    for (const auto& ch : channels_) all_done &= ch->size() == 0;
    for (const auto& q : queues_) all_done &= q->size() == 0;
    if (all_done) break;
    run_.clock->sleep_for(millis(2));
  }
  stop();
  return all_done;
}

stats::Trace Runtime::take_trace() {
  if (running()) throw std::logic_error("Runtime: take_trace while running");
  std::int64_t t_begin = 0;
  std::int64_t t_end = 0;
  {
    const util::MutexLock lock(lifecycle_mu_);
    if (t_stop_ == 0) t_stop_ = run_.now_ns();
    t_begin = t_start_;
    t_end = t_stop_;
  }

  // Drain buffers so every remaining item's free event lands in the trace
  // before the merge.
  channels_.clear();
  queues_.clear();
  return recorder_.merge(t_begin, t_end);
}

}  // namespace stampede
