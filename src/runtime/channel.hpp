/// \file channel.hpp
/// \brief Timestamped channel: the Stampede buffer abstraction.
///
/// A channel stores timestamped items and supports the access pattern the
/// paper's application class depends on (§1): consumers repeatedly fetch
/// the *latest* item newer than the one they last processed, implicitly
/// skipping over stale items. The channel simultaneously implements:
///
///  * **feedback piggy-backing** (paper §3.3.2): consumers hand their
///    summary-STP to the channel on every `get`; the channel folds those
///    into its backwardSTP vector and hands its own summary back to the
///    producer on every `put`;
///  * **garbage collection**: per-consumer consumed/skipped masks
///    (Transparent GC) and timestamp guarantees (Dead-Timestamp GC) decide
///    when stored items are reclaimed;
///  * **accounting**: every put/consume/skip/drop is recorded in the trace;
///  * **memory-pressure costs**: put/get report a scan overhead
///    proportional to channel occupancy which the calling task realizes
///    outside the channel lock (see PressureModel);
///  * optional **bounded capacity**: a classic backpressure baseline used
///    by the ablation benches (put blocks while the channel is full).
///
/// Storage is a flat deque of entries kept sorted by timestamp. Source
/// threads emit mostly-monotonic timestamps, so inserts are an O(1)
/// append in the common case; lookups (`get_at`, `get_nearest`, cursor
/// scans) binary-search. Garbage collection is incremental: only the
/// prefix below the frontier is visited, and an unchanged frontier
/// early-exits without touching storage at all (see `collect_locked`).
/// Trace events are recorded under the channel lock into the calling
/// thread's own recorder shard (no lock of their own), and blocked
/// threads are woken only when someone is actually waiting (`waiters_`
/// count). A consumer that waits outside the channel — the net server
/// parks a remote get beside its socket — arms a `util::Wakeup` instead
/// (`arm_ready`), which the put that makes it ready, or close, signals.
///
/// Thread-safety: all public operations are safe to call concurrently.
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <optional>
#include <stop_token>
#include <string>
#include <vector>

#include "core/feedback.hpp"
#include "gc/frontier.hpp"
#include "runtime/context.hpp"
#include "runtime/item.hpp"
#include "stats/recorder.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"
#include "util/wakeup.hpp"

namespace stampede::telemetry {
class Counter;
class Gauge;
}  // namespace stampede::telemetry

namespace stampede {

/// Construction-time channel settings.
struct ChannelConfig {
  std::string name;
  /// Virtual cluster node the channel (and its item copies) lives on. In
  /// the paper channels are allocated on their producer's node.
  int cluster_node = 0;
  /// Maximum number of stored items; 0 = unbounded. A bounded channel
  /// blocks `put` when full — the classic backpressure baseline.
  std::size_t capacity = 0;
  /// Custom compress operator (used when the runtime's ARU mode is kCustom).
  aru::CompressFn custom_compress;
  /// Feedback filter spec for this channel's outgoing summary-STP
  /// (empty = use the runtime-wide setting).
  std::string filter;
};

class Channel {
 public:
  /// Maximum consumers per channel (consumed/skipped state is a bitmask).
  static constexpr int kMaxConsumers = 64;

  Channel(RunContext& ctx, NodeId id, ChannelConfig config, aru::Mode mode,
          std::unique_ptr<Filter> filter);

  // -- graph wiring (single-threaded construction phase) --------------------

  /// Registers a producing thread. Multiple producers are allowed.
  void register_producer(NodeId thread);

  /// Registers a consuming thread on `cluster_node`; returns the consumer
  /// index used by get operations.
  int register_consumer(NodeId thread, int cluster_node);

  // -- data plane ------------------------------------------------------------

  struct PutResult {
    /// The channel's summary-STP, piggy-backed to the producer (paper
    /// §3.3.2). kUnknownStp when ARU is off or no feedback arrived yet.
    Nanos channel_summary{0};
    /// Buffer-management overhead the caller must realize (pressure model).
    Nanos overhead{0};
    /// Time spent blocked on a full bounded channel (backpressure mode).
    Nanos blocked{0};
    /// False if the channel is closed (item was not stored).
    bool stored = false;
  };

  /// Inserts `item`. Blocks while a bounded channel is full (unless the
  /// stop token fires). An item whose timestamp is already below the DGC
  /// frontier is dead on arrival and dropped immediately — recorded as a
  /// tagged drop only (no put event), so postmortem waste accounting does
  /// not double-count it.
  ARU_HOT_PATH PutResult put(std::shared_ptr<Item> item, std::stop_token st);

  /// Bounded-wait put: identical to put() except that a bounded channel
  /// still full after waiting up to `wait` (default: not at all) yields
  /// nullopt instead of blocking further (the item is untouched; callers
  /// holding their own reference may simply retry). Lets the net server
  /// skeleton park on backpressure in slices and keep emitting heartbeats
  /// between them instead of going silent mid-RPC.
  ARU_HOT_PATH std::optional<PutResult> try_put(std::shared_ptr<Item> item,
                                                Nanos wait = Nanos{0});

  struct GetResult {
    /// The fetched item; nullptr when the channel closed with nothing left
    /// to deliver or the stop token fired.
    std::shared_ptr<const Item> item;
    /// Time spent blocked waiting for a new item.
    Nanos blocked{0};
    /// Simulated inter-node transfer delay the caller must realize.
    Nanos transfer{0};
    /// Buffer-management overhead the caller must realize.
    Nanos overhead{0};
    /// Number of stale items skipped over by this get.
    int skipped = 0;
  };

  /// Fetches the newest item strictly newer than this consumer's cursor,
  /// skipping (and marking) everything in between; blocks until one exists
  /// or the channel closes / `st` fires.
  ///
  /// \param consumer_idx   index from register_consumer.
  /// \param consumer_summary the consumer thread's summary-STP, folded into
  ///        this channel's backwardSTP vector (pass kUnknownStp when ARU is
  ///        off).
  /// \param extra_guarantee DGC: lowest output timestamp still wanted by
  ///        the consumer's own downstream (kNoTimestamp = none).
  ARU_HOT_PATH GetResult get_latest(int consumer_idx, Nanos consumer_summary,
                                    Timestamp extra_guarantee, std::stop_token st);

  /// Fetches the *oldest* item strictly newer than this consumer's cursor
  /// — in-order access without skipping (Stampede's sequential access
  /// mode). Blocks like get_latest. Skips nothing, so a consumer using
  /// only get_next never wastes items.
  ARU_HOT_PATH GetResult get_next(int consumer_idx, Nanos consumer_summary,
                                  Timestamp extra_guarantee, std::stop_token st);

  /// Non-blocking: the item with exactly timestamp `ts`, if present.
  /// Marks it consumed but does not move the cursor (random access —
  /// e.g. fetching the frame matching another stream's timestamp).
  /// Returns a null item when absent; never blocks.
  ARU_HOT_PATH GetResult get_at(int consumer_idx, Timestamp ts, Nanos consumer_summary);

  /// Non-blocking: the stored item whose timestamp is closest to `ts`
  /// within ±`tolerance` — the paper's §1 footnote: "corresponding
  /// timestamps could be timestamps with the same value or with values
  /// close enough within a pre-defined threshold". Ties prefer the newer
  /// item. Marks it consumed; does not move the cursor.
  ARU_HOT_PATH GetResult get_nearest(int consumer_idx, Timestamp ts, Timestamp tolerance,
                                     Nanos consumer_summary);

  /// Sliding-window access (e.g. gesture recognition over recent video):
  /// blocks until an item newer than the cursor exists, then returns the
  /// newest `window` items in ascending timestamp order. The newest is
  /// marked consumed and advances the cursor; older window members are
  /// only observed (they may already be consumed/skipped). Entries older
  /// than the window that this consumer never consumed are marked skipped,
  /// so Transparent GC reclaims a member once it leaves the window, as
  /// Dead-Timestamp GC does. The consumer's guarantee is held back at the
  /// window's tail so the window is not collected under it.
  struct WindowResult {
    std::vector<std::shared_ptr<const Item>> items;  ///< ascending ts; empty if closed
    Nanos blocked{0};
    Nanos transfer{0};  ///< transfer for the newest (new) item only
    Nanos overhead{0};
  };
  ARU_HOT_PATH WindowResult get_window(int consumer_idx, std::size_t window,
                                       Nanos consumer_summary, std::stop_token st);

  /// Explicit guarantee: consumer `consumer_idx` declares it will never
  /// again request a timestamp below `g`. Required by consumers that use
  /// only random access (`get_at`) — their cursor never moves, so without
  /// this call they pin the channel frontier at zero and nothing is ever
  /// collected.
  void raise_guarantee(int consumer_idx, Timestamp g);

  /// Non-blocking probe: timestamp of the newest stored item
  /// (kNoTimestamp when empty).
  Timestamp latest_ts() const;

  /// Readiness signal for a consumer that waits outside the channel (the
  /// net server parks a remote get beside its socket). True when
  /// get_latest for this consumer would return without blocking: an unseen
  /// item is stored or the channel is closed. Otherwise arms `wakeup`, and
  /// the put that makes the consumer ready, or close(), signals it once. A
  /// consumer has at most one armed wakeup; arming another replaces it.
  bool arm_ready(int consumer_idx, util::Wakeup& wakeup);

  /// Disarms `wakeup` if it is still armed for `consumer_idx`. Its owner
  /// calls this before destroying it.
  void disarm_ready(int consumer_idx, const util::Wakeup& wakeup);

  /// True once close() was called.
  bool closed() const;

  /// Wakes all waiters; subsequent puts are rejected, gets drain what is
  /// left and then return null.
  void close();

  // -- introspection ----------------------------------------------------------

  NodeId id() const { return id_; }
  const std::string& name() const { return config_.name; }
  int cluster_node() const { return config_.cluster_node; }
  /// Configured bound (0 = unbounded). The net server advertises
  /// `capacity - size` as put credits on coalesced acks.
  std::size_t capacity() const { return config_.capacity; }
  std::size_t size() const;
  /// DGC frontier: min consumer guarantee (for thread guarantee
  /// propagation — paper's dead-timestamp reasoning).
  Timestamp frontier() const;
  /// Current channel summary-STP: what a put or a get returns upstream
  /// (the net server sends it on put acks and get replies).
  Nanos summary() const;
  std::size_t consumers() const;
  std::size_t producers() const;

 private:
  struct Entry {
    Timestamp ts = kNoTimestamp;
    std::shared_ptr<Item> item;
    std::uint64_t consumed_mask = 0;
    std::uint64_t skipped_mask = 0;
  };

  struct ConsumerState {
    NodeId thread = kNoNode;
    int cluster_node = 0;
    Timestamp cursor = kNoTimestamp;  // last timestamp delivered
    util::Wakeup* wakeup = nullptr;   // armed by arm_ready
  };

  /// Shared body of put()/try_put(). A full bounded channel is waited out
  /// on cv_: without limit when `wait` is nullopt (put), else for at most
  /// `*wait` before returning nullopt (try_put).
  std::optional<PutResult> put_impl(std::shared_ptr<Item> item, std::stop_token st,
                                    std::optional<Nanos> wait);

  // -- the read path ----------------------------------------------------------
  // Every read is a short selector over these steps, so what a consume
  // costs and records, when a reader waits and how a skip is marked each
  // live in one place.

  /// Enter: checks `consumer_idx` (throwing std::out_of_range naming
  /// `op`), folds the consumer's summary-STP into the backwardSTP vector
  /// and raises its DGC guarantee to `extra_guarantee` (kNoTimestamp =
  /// none). Returns the consumer's state.
  ConsumerState& enter_locked(int consumer_idx, const char* op, Nanos consumer_summary,
                              Timestamp extra_guarantee) REQUIRES(mu_);

  /// Wait: blocks on cv_ until ready_locked(me) or `st` fires, counted in
  /// `waiters_`, and stores the time spent in `blocked`. True when an
  /// entry newer than the consumer's cursor exists (false: closed and
  /// drained, or stopped).
  bool wait_locked(util::UniqueLock& lock, const ConsumerState& me, std::stop_token st,
                   Nanos& blocked) REQUIRES(mu_);

  /// Skip: marks the entries at indices [begin, end) that the consumer has
  /// neither consumed nor skipped as skipped (one kSkip each); returns how
  /// many it marked.
  int skip_locked(int consumer_idx, std::size_t begin, std::size_t end, std::int64_t now)
      REQUIRES(mu_);

  /// Consume: marks the entry at `at` consumed (kConsume,
  /// `aru_channel_gets_total`), re-arms the collector when it lies below
  /// the frontier, and fills the simulated transfer to the consumer's node
  /// and the occupancy scan overhead. Returns the entry's item.
  const std::shared_ptr<Item>& consume_locked(int consumer_idx, std::size_t at,
                                              std::int64_t now, Nanos& transfer,
                                              Nanos& overhead) REQUIRES(mu_);

  /// Settle: collects into the per-thread reclaimed scratch (the caller
  /// clears it once mu_ is dropped), wakes a bounded channel's blocked
  /// producers when space freed, and updates the gauges.
  void settle_locked(std::int64_t now) REQUIRES(mu_);

  /// Reclaims dead entries below the frontier; returns how many were
  /// erased. Incremental: when the frontier has not moved since the last
  /// pass and no mask/insert below it changed (`gc_pending_`), this is a
  /// constant-time no-op. Otherwise only the prefix with ts < frontier is
  /// visited. Reclaimed items are moved into `reclaimed` so their payloads
  /// are released after mu_ is dropped.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("appends into the per-thread reclaimed scratch whose capacity persists across operations; the deferred payload release runs after mu_ is dropped")
  std::size_t collect_locked(std::int64_t now,
                             std::vector<std::shared_ptr<Item>>& reclaimed) REQUIRES(mu_);

  /// True if every registered consumer has consumed or skipped the entry.
  bool all_passed(const Entry& e) const REQUIRES(mu_);

  /// Index of the first entry with ts >= `ts` (entries_.size() if none).
  std::size_t lower_bound_locked(Timestamp ts) const REQUIRES(mu_);

  /// Index of the entry with exactly `ts`, or entries_.size().
  std::size_t find_locked(Timestamp ts) const REQUIRES(mu_);

  /// Throws std::out_of_range unless `consumer_idx` names a registered
  /// consumer.
  void check_consumer_locked(int consumer_idx, const char* op) const REQUIRES(mu_);

  /// Records one trace event about `item` on the calling thread's shard.
  void record(stats::EventType type, const Item& item, std::int64_t now, NodeId node,
              std::int64_t a = 0, std::int64_t b = 0) const;

  /// True when get_latest for consumer `c` would not block.
  bool ready_locked(const ConsumerState& c) const REQUIRES(mu_);

  /// Signals and disarms the armed wakeups of consumers that are now
  /// ready.
  void signal_ready_locked() REQUIRES(mu_);

  /// Wakes blocked threads only when some exist (skips the notify syscall
  /// entirely for the common uncontended case).
  void notify_waiters_locked() REQUIRES(mu_);

  /// Mirrors occupancy and the DGC frontier into the live gauges (two
  /// relaxed stores); called at the end of every locked section that can
  /// change them. No-op when telemetry is not wired (ctx_.metrics null).
  void update_gauges_locked() REQUIRES(mu_);

  RunContext& ctx_;
  NodeId id_;
  ChannelConfig config_;

  mutable util::Mutex mu_{util::LockRank::kBuffer, "channel.mu"};
  std::condition_variable_any cv_;
  /// Sorted ascending by ts (unique). Deque: O(1) append at the back for
  /// monotonic producers, O(1) pop at the front for the collector, random
  /// access for binary search.
  std::deque<Entry> entries_ GUARDED_BY(mu_);
  std::vector<ConsumerState> consumer_states_ GUARDED_BY(mu_);
  gc::ConsumerFrontiers frontiers_ GUARDED_BY(mu_);
  aru::FeedbackState feedback_ GUARDED_BY(mu_);
  std::size_t producer_count_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  /// Number of threads currently blocked in cv_.wait (producers on a full
  /// bounded channel and consumers on an empty one).
  int waiters_ GUARDED_BY(mu_) = 0;
  /// Frontier value at the end of the last collect pass.
  Timestamp collected_frontier_ GUARDED_BY(mu_) = 0;
  /// Set when storage below the current frontier may have changed without
  /// the frontier moving (random-access consume, explicit guarantee skip
  /// marking, out-of-order insert below the frontier).
  bool gc_pending_ GUARDED_BY(mu_) = false;

  /// Live telemetry series, registered once at construction (null when
  /// ctx_.metrics is). Increments are relaxed atomics — safe under mu_.
  telemetry::Counter* met_puts_ = nullptr;
  telemetry::Counter* met_gets_ = nullptr;
  telemetry::Counter* met_drops_ = nullptr;
  telemetry::Gauge* met_occupancy_ = nullptr;
  telemetry::Gauge* met_frontier_ = nullptr;
};

}  // namespace stampede
