/// \file runtime.hpp
/// \brief The Stampede-style runtime: owns the task graph, buffers,
///        threads, clock, accounting and the ARU/GC configuration.
///
/// Typical use:
/// \code
///   Runtime rt({.aru = {.mode = aru::Mode::kMax}, .gc = gc::Kind::kDeadTimestamp});
///   Channel& frames = rt.add_channel({.name = "frames"});
///   TaskContext& dig = rt.add_task({.name = "digitizer", .body = digitizer_body});
///   TaskContext& trk = rt.add_task({.name = "tracker", .body = tracker_body});
///   rt.connect(dig, frames);   // dig produces into frames
///   rt.connect(frames, trk);   // trk consumes frames (input port 0)
///   rt.start();
///   rt.wait_emits(100, seconds(30));
///   rt.stop();
///   stats::Trace trace = rt.take_trace();
/// \endcode
#pragma once

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/topology.hpp"
#include "runtime/channel.hpp"
#include "runtime/graph.hpp"
#include "runtime/pool.hpp"
#include "runtime/queue.hpp"
#include "runtime/task.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/registry.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace stampede {

struct RuntimeConfig {
  /// Clock driving all timing; defaults to the process steady clock.
  Clock* clock = nullptr;
  aru::Config aru;
  gc::Kind gc = gc::Kind::kDeadTimestamp;
  CostMode cost_mode = CostMode::kSleep;
  cluster::Topology topology = cluster::Topology::single_node();
  PressureModel pressure;
  /// Preemption-burst injection (heavy-tailed STP noise, paper §3.3.2).
  SchedulerNoise sched_noise;
  /// Master seed; each task derives its own deterministic stream.
  std::uint64_t seed = 1;
  /// When positive, a monitor thread samples every channel's occupancy and
  /// the per-node footprints into the trace (kGauge events) at this period.
  Nanos monitor_period{0};
  /// Live telemetry exposition (telemetry/exporter.hpp). Negative =
  /// disabled (the registry still collects; nothing is served). 0 = bind
  /// an ephemeral port, read back via Runtime::metrics_port(). start()
  /// throws if the bind fails.
  std::int32_t metrics_port = -1;
  /// Bind address for the metrics endpoint (loopback by default; set
  /// "0.0.0.0" to expose it off-host).
  std::string metrics_host = "127.0.0.1";
};

class Runtime {
 public:
  explicit Runtime(RuntimeConfig config = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // -- graph construction (before start) --------------------------------------

  Channel& add_channel(ChannelConfig config);
  Queue& add_queue(QueueConfig config);
  TaskContext& add_task(TaskConfig config);

  /// Producer edge: `task` puts into `buffer` (output ports are indexed in
  /// connect order).
  void connect(TaskContext& task, Channel& channel);
  void connect(TaskContext& task, Queue& queue);

  /// Consumer edge: `task` reads `buffer` (input ports indexed in order).
  void connect(Channel& channel, TaskContext& task);
  void connect(Queue& queue, TaskContext& task);

  // -- distributed pipelines (src/net) ----------------------------------------

  /// Registers a graph node that stands in for an entity living in another
  /// process: a remote channel proxy (kChannel) or a remote peer thread
  /// (kThread). The node gets a trace name and participates in graph
  /// validation but owns no local storage. Returns the assigned id.
  NodeId add_remote_node(const std::string& name, NodeKind kind);

  /// Registers an edge touching a remote node (e.g. remote producer →
  /// local channel). Both ids must already be registered.
  void add_remote_edge(NodeId from, NodeId to);

  /// Producer edge into a remote channel: `task` puts into `remote`.
  void connect(TaskContext& task, RemoteEndpoint& remote);

  /// Consumer edge from a remote channel: `task` reads `remote`.
  void connect(RemoteEndpoint& remote, TaskContext& task);

  // -- execution ---------------------------------------------------------------

  /// Validates the graph and launches one thread per task.
  void start();

  /// Blocks until at least `n` sink emissions were recorded or `timeout`
  /// elapses; returns whether the target was reached. (Counts emissions
  /// since runtime construction.)
  bool wait_emits(std::int64_t n, Nanos timeout);

  /// Runs for (roughly) `d` of clock time, then returns (runtime keeps
  /// running; call stop()).
  void run_for(Nanos d);

  /// Requests all tasks to stop, closes all buffers, joins all threads.
  /// Idempotent and safe to call from several control threads (the first
  /// caller joins; later callers see the stopped state). Must NOT be
  /// called from inside a task body — it joins the task threads.
  void stop();

  /// Graceful shutdown: closes all buffers *without* signalling tasks, so
  /// consumers drain what is already buffered (their gets return the
  /// remaining items, then null and the bodies exit with kDone), then
  /// joins everything. Returns false if draining exceeded `timeout` and a
  /// hard stop() was issued instead.
  bool drain(Nanos timeout);

  bool running() const { return running_.load(std::memory_order_acquire); }

  // -- results & introspection -------------------------------------------------

  /// Merges and returns the recorded trace (call after stop()).
  stats::Trace take_trace();

  const Graph& graph() const { return graph_; }
  MemoryTracker& memory() { return tracker_; }
  /// Live metrics registry (always collecting; served when metrics_port
  /// is enabled). Register run-specific series before start().
  telemetry::Registry& metrics() { return metrics_; }
  /// The bound metrics port: the configured one, or the ephemeral pick
  /// when metrics_port was 0. Zero before start() or when disabled.
  std::uint16_t metrics_port() const {
    return exporter_ ? exporter_->port() : 0;
  }
  stats::Recorder& recorder() { return recorder_; }
  Clock& clock() { return *run_.clock; }
  const RunContext& context() const { return run_; }
  /// Mutable run services for the net layer (item materialization on the
  /// receive path needs the tracker/recorder).
  RunContext& context() { return run_; }

  std::size_t channels() const { return channels_.size(); }
  std::size_t queues() const { return queues_.size(); }
  std::size_t tasks() const { return tasks_.size(); }

 private:
  NodeId next_node_id() { return static_cast<NodeId>(graph_.nodes().size()); }
  std::unique_ptr<Filter> filter_for(const std::string& override_spec) const;
  void check_mutable(const char* op) const;
  void stop_locked() REQUIRES(lifecycle_mu_);
  /// Registers the runtime-owned polled series (memory) and the
  /// /status sections (channels, memory). Called once from the
  /// constructor.
  void register_builtin_metrics();

  RuntimeConfig config_;
  stats::Recorder recorder_;
  MemoryTracker tracker_;
  /// Declared before (so destroyed after) every container that can hold
  /// items: an Item's destructor recycles its payload into this pool.
  PayloadPool pool_;
  /// Declared before channels_/tasks_ (destroyed after them): they hold
  /// raw pointers to series registered here. The exporter is declared
  /// after the registry so it stops serving before the registry dies.
  telemetry::Registry metrics_;
  std::unique_ptr<telemetry::Exporter> exporter_;
  RunContext run_;
  Graph graph_;

  // Graph containers are mutated only during the single-threaded
  // construction phase (enforced by check_mutable) and are read-only once
  // start() spawns threads, so they need no lock.
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::unique_ptr<TaskContext>> tasks_;

  /// Serializes start/stop/drain transitions. Rank kLifecycle: held while
  /// closing buffers (rank kBuffer) and joining task threads — task
  /// bodies never acquire it, so the join cannot deadlock.
  mutable util::Mutex lifecycle_mu_{util::LockRank::kLifecycle, "runtime.lifecycle"};
  std::vector<std::jthread> threads_ GUARDED_BY(lifecycle_mu_);

  /// Atomic mirrors of the lifecycle state so hot-path readers
  /// (running(), check_mutable from task threads) stay lock-free.
  std::atomic<bool> running_{false};
  std::atomic<bool> stopped_{false};
  std::int64_t t_start_ GUARDED_BY(lifecycle_mu_) = 0;
  std::int64_t t_stop_ GUARDED_BY(lifecycle_mu_) = 0;
};

}  // namespace stampede
