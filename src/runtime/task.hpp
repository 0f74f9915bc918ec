/// \file task.hpp
/// \brief Task execution context: the API a pipeline-stage body programs
///        against, plus the per-iteration ARU bookkeeping.
///
/// A task is the paper's "thread": a loop that repeatedly gets the latest
/// data from its input buffers, processes it, and puts new data into its
/// output buffers. The runtime drives the loop; the body is a callable
/// invoked once per iteration. `periodicity_sync()` — the API call the
/// paper added to Stampede (§4) — closes an iteration: it measures the
/// current-STP, folds it into the node's summary-STP, and paces the thread
/// (sleeps) when ARU says production should slow down.
///
/// Body convention for compute/waste accounting: emulate the stage cost
/// with `compute(...)` (and/or run real kernels timed by the runtime),
/// then `make_item(...)`, fill the payload, and `put(...)`. Compute
/// accumulated since the previous make_item is attributed as the new
/// item's production cost.
#pragma once

#include <functional>
#include <memory>
#include <stop_token>
#include <string>
#include <vector>

#include "core/feedback.hpp"
#include "core/stp.hpp"
#include "runtime/channel.hpp"
#include "runtime/queue.hpp"
#include "runtime/remote.hpp"
#include "util/rng.hpp"

namespace stampede {

class TaskContext;

/// Result of one body invocation.
enum class TaskStatus {
  kContinue,  ///< run another iteration
  kDone,      ///< task finished voluntarily (e.g. produced all frames)
};

/// One pipeline-stage iteration.
using TaskBody = std::function<TaskStatus(TaskContext&)>;

struct TaskConfig {
  std::string name;
  int cluster_node = 0;
  TaskBody body;
  /// Custom compress operator for this thread node (ARU kCustom mode).
  aru::CompressFn custom_compress;
};

class TaskContext {
 public:
  TaskContext(RunContext& run, NodeId id, TaskConfig config, aru::Mode mode,
              std::unique_ptr<Filter> filter, std::uint64_t seed);

  TaskContext(const TaskContext&) = delete;
  TaskContext& operator=(const TaskContext&) = delete;

  // -- data plane (called from the body) -------------------------------------

  /// Fetches the latest unseen item from input `idx` (blocking). Returns
  /// nullptr when the runtime is stopping or the upstream closed — the
  /// body should then return TaskStatus::kDone.
  std::shared_ptr<const Item> get(std::size_t idx);

  /// In-order access: the oldest unseen item from input `idx` (blocking,
  /// never skips). Channel inputs only.
  std::shared_ptr<const Item> get_next(std::size_t idx);

  /// Random access: the item with exactly timestamp `ts` from input
  /// `idx`, or nullptr if not (or no longer) stored. Non-blocking;
  /// channel inputs only.
  std::shared_ptr<const Item> get_at(std::size_t idx, Timestamp ts);

  /// Nearest-timestamp random access: the stored item closest to `ts`
  /// within ±`tolerance` (paper §1 footnote's "close enough within a
  /// pre-defined threshold"), or nullptr. Non-blocking; channel inputs
  /// only.
  std::shared_ptr<const Item> get_nearest(std::size_t idx, Timestamp ts,
                                          Timestamp tolerance);

  /// Sliding-window access: blocks for a new item on input `idx`, then
  /// returns the newest `window` stored items in ascending timestamp
  /// order (channel inputs only). See Channel::get_window.
  std::vector<std::shared_ptr<const Item>> get_window(std::size_t idx, std::size_t window);

  /// Declares this task done with all items below `ts` on channel input
  /// `idx` — required for inputs accessed only via get_at, whose cursor
  /// (and therefore GC guarantee) never advances otherwise.
  void release_until(std::size_t idx, Timestamp ts);

  /// Emulates `cost` of stage work (sleeps or spins per the runtime's
  /// CostMode) and accounts it toward the next produced item.
  void compute(Nanos cost);

  /// Accounts externally timed work (e.g. a real pixel kernel measured by
  /// the caller) without emulating it again.
  void account_compute(Nanos cost);

  /// DGC computation elimination (paper §3.2): true if at least one output
  /// buffer still wants timestamp `ts`. When false, the body should skip
  /// the stage work and call `elide(saved_cost)`.
  bool outputs_want(Timestamp ts) const;

  /// Records an elided (saved) computation of `saved` nanoseconds.
  void elide(Nanos saved);

  /// Creates a timestamped output item of `bytes`, charged to this task's
  /// cluster node; `lineage` lists the input items it derives from.
  /// Applies the allocation-pressure cost.
  std::shared_ptr<Item> make_item(Timestamp ts, std::size_t bytes,
                                  std::vector<ItemId> lineage);

  /// Puts `item` into output `idx`, receiving the buffer's summary-STP
  /// feedback (paper §3.3.2 piggy-backing). Returns false if the buffer
  /// rejected the item (runtime stopping).
  bool put(std::size_t idx, std::shared_ptr<Item> item);

  /// Marks a pipeline result: `source` reached the end of the pipeline.
  /// Sinks call this once per displayed/committed result.
  void emit(const Item& source);

  /// Marks one sink refresh (one *output frame* in the paper's throughput
  /// sense). A sink combining several results per refresh (e.g. the GUI
  /// showing both tracked models) calls emit() per result but display()
  /// once per refresh; throughput and jitter are computed over displays
  /// when any were recorded.
  void display(Timestamp newest_ts);

  /// Ends the current iteration: measures current-STP, updates the
  /// summary-STP, and paces the thread when ARU calls for it. The runtime
  /// invokes this automatically after the body returns; a body may also
  /// call it manually (the paper's convention) — the automatic call then
  /// becomes a no-op for that iteration.
  void periodicity_sync();

  // -- environment ------------------------------------------------------------

  /// True when the runtime is shutting down; long-running bodies should
  /// poll this and return kDone.
  bool stopping() const;

  Clock& clock() const { return *run_.clock; }
  Nanos now() const { return run_.clock->now(); }
  Xoshiro256& rng() { return rng_; }
  NodeId id() const { return id_; }
  const std::string& name() const { return config_.name; }
  int cluster_node() const { return config_.cluster_node; }
  std::size_t inputs() const { return inputs_.size(); }
  std::size_t outputs() const { return outputs_.size(); }

  /// Iterations completed so far.
  std::int64_t iterations() const { return meter_.iterations(); }

  /// Current ARU view (diagnostics/tests).
  const aru::FeedbackState& feedback() const { return feedback_; }
  Nanos current_stp() const { return meter_.current_stp(); }

  /// Opens a new loop iteration. Normally the runtime's loop driver calls
  /// this before each body invocation; loop-style threads (the spd facade)
  /// call it from periodicity_sync to start their next iteration.
  void begin_iteration();

 private:
  friend class Runtime;

  struct InputPort {
    Channel* channel = nullptr;
    Queue* queue = nullptr;
    RemoteEndpoint* remote = nullptr;
    int consumer_idx = 0;
    /// Remote copy held on this task's cluster node (Stampede materializes
    /// transferred items locally); replaced on the next remote fetch from
    /// this port, released at task end.
    std::shared_ptr<const Item> replica;
  };
  struct OutputPort {
    Channel* channel = nullptr;
    Queue* queue = nullptr;
    RemoteEndpoint* remote = nullptr;
    int feedback_slot = 0;
  };

  // Runtime-side wiring/driving (construction and thread loop).
  void add_input(Channel& ch);
  void add_input(Queue& q);
  void add_input(RemoteEndpoint& remote);
  void add_output(Channel& ch);
  void add_output(Queue& q);
  void add_output(RemoteEndpoint& remote);
  void set_source(bool is_source) { is_source_ = is_source; }
  void run_loop(std::stop_token st);

  /// Input `idx`, or std::out_of_range naming `op`. channel_input also
  /// throws std::logic_error unless the input is a channel.
  InputPort& input(std::size_t idx, const char* op);
  InputPort& channel_input(std::size_t idx, const char* op);

  /// Settles one read of `port` that delivered `item` (null: nothing):
  /// books `blocked`, realizes a simulated `transfer` and holds the copy as
  /// the port's replica, traces a remote get's real `wire` time, and
  /// applies the buffer's `overhead`.
  void settle_get(InputPort& port, const std::shared_ptr<const Item>& item, Nanos blocked,
                  Nanos transfer, Nanos overhead, Nanos wire = Nanos{0});

  /// The summary-STP a get piggy-backs upstream (kUnknownStp with ARU off).
  Nanos my_summary() const;

  /// Accounts a freshly transferred remote copy on this node's memory,
  /// replacing the port's previous replica.
  void hold_replica(InputPort& port, std::shared_ptr<const Item> item);
  void drop_replica(InputPort& port);
  void drop_all_replicas();

  void realize_cost(Nanos d);
  void apply_overhead(Nanos d);
  void record(stats::EventType type, std::int64_t a = 0, std::int64_t b = 0,
              ItemId item = 0, Timestamp ts = kNoTimestamp);

  RunContext& run_;
  NodeId id_;
  TaskConfig config_;
  Xoshiro256 rng_;

  std::vector<InputPort> inputs_;
  std::vector<OutputPort> outputs_;

  aru::StpMeter meter_;
  aru::FeedbackState feedback_;
  bool is_source_ = false;
  bool synced_this_iteration_ = false;
  Nanos unattributed_compute_{0};
  std::stop_token stop_token_;
};

}  // namespace stampede
