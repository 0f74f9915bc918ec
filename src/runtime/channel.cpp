#include "runtime/channel.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "telemetry/registry.hpp"

namespace stampede {

namespace {
/// A per-node custom operator (the paper's data-dependency parameter on
/// buffer/thread creation) overrides the runtime-wide mode — unless ARU
/// is off entirely.
aru::Mode effective_mode(aru::Mode global, const aru::CompressFn& custom) {
  if (global == aru::Mode::kOff || !custom) return global;
  return aru::Mode::kCustom;
}

/// Per-thread scratch for items collected under mu_. Their payload
/// release (pool lock + accounting) must wait until the channel lock is
/// dropped, so ops clear() the scratch — destroying the items — once mu_
/// is released; the vector's capacity persists across operations.
std::vector<std::shared_ptr<Item>>& tl_reclaimed() {
  static thread_local std::vector<std::shared_ptr<Item>> v;
  return v;
}
}  // namespace

Channel::Channel(RunContext& ctx, NodeId id, ChannelConfig config, aru::Mode mode,
                 std::unique_ptr<Filter> filter)
    : ctx_(ctx),
      id_(id),
      config_(std::move(config)),
      feedback_(effective_mode(mode, config_.custom_compress), /*is_thread=*/false,
                config_.custom_compress, std::move(filter)) {
  if (ctx_.metrics != nullptr) {
    telemetry::Registry& reg = *ctx_.metrics;
    const telemetry::Registry::Labels labels = {{"channel", config_.name}};
    met_puts_ = &reg.counter("aru_channel_puts_total", "Items stored by put", labels);
    met_gets_ = &reg.counter("aru_channel_gets_total",
                             "Items delivered to consumers (all get variants)", labels);
    met_drops_ = &reg.counter(
        "aru_channel_drops_total",
        "Wasted items: dead-on-arrival puts and entries reclaimed unconsumed",
        labels);
    met_occupancy_ = &reg.gauge("aru_channel_occupancy", "Stored items", labels);
    met_frontier_ =
        &reg.gauge("aru_channel_frontier_ts", "Dead-timestamp GC frontier", labels);
    feedback_.bind_gauges(
        nullptr, &reg.gauge("aru_channel_summary_stp_ns",
                            "Channel summary-STP propagated upstream (0 = unknown)",
                            labels));
  }
}

void Channel::register_producer(NodeId /*thread*/) {
  // Registration happens in the single-threaded construction phase, but
  // taking the lock keeps the guarded-member annotations sound (and the
  // cost is irrelevant off the data plane).
  const util::MutexLock lock(mu_);
  ++producer_count_;
}

int Channel::register_consumer(NodeId thread, int cluster_node) {
  const util::MutexLock lock(mu_);
  if (consumer_states_.size() >= static_cast<std::size_t>(kMaxConsumers)) {
    throw std::length_error("Channel: too many consumers");
  }
  consumer_states_.push_back(ConsumerState{.thread = thread, .cluster_node = cluster_node});
  const int idx = frontiers_.add_consumer();
  feedback_.add_output();
  return idx;
}

void Channel::check_consumer_locked(int consumer_idx, const char* op) const {
  if (consumer_idx < 0 ||
      static_cast<std::size_t>(consumer_idx) >= consumer_states_.size()) {
    throw std::out_of_range(std::string(op) + ": bad consumer index");
  }
}

void Channel::record(stats::EventType type, const Item& item, std::int64_t now, NodeId node,
                     std::int64_t a, std::int64_t b) const {
  ctx_.recorder->record(stats::Event{
      .type = type,
      .node = node,
      .ts = item.ts(),
      .item = item.id(),
      .t = now,
      .a = a,
      .b = b,
  });
}

void Channel::update_gauges_locked() {
  if (met_occupancy_ == nullptr) return;
  met_occupancy_->set(static_cast<std::int64_t>(entries_.size()));
  met_frontier_->set(frontiers_.frontier());
}

void Channel::notify_waiters_locked() {
  if (waiters_ == 0) return;
  if (waiters_ == 1) {
    cv_.notify_one();
  } else {
    cv_.notify_all();
  }
}

bool Channel::all_passed(const Entry& e) const {
  const std::uint64_t passed = e.consumed_mask | e.skipped_mask;
  const std::uint64_t all =
      consumer_states_.size() >= 64 ? ~0ULL : ((1ULL << consumer_states_.size()) - 1);
  return (passed & all) == all;
}

std::size_t Channel::lower_bound_locked(Timestamp ts) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), ts,
      [](const Entry& e, Timestamp t) { return e.ts < t; });
  return static_cast<std::size_t>(it - entries_.begin());
}

std::size_t Channel::find_locked(Timestamp ts) const {
  const std::size_t idx = lower_bound_locked(ts);
  if (idx < entries_.size() && entries_[idx].ts == ts) return idx;
  return entries_.size();
}

std::size_t Channel::collect_locked(std::int64_t now,
                                    std::vector<std::shared_ptr<Item>>& reclaimed) {
  if (ctx_.gc == gc::Kind::kNone) return 0;
  // The frontier (min consumer guarantee) caps what may be reclaimed in
  // every mode: window/random-access consumers hold it back to keep items
  // they may re-read resident. Below the frontier, Transparent GC frees
  // entries every consumer has consumed or skipped; Dead-Timestamp GC
  // frees everything (the guarantees assert no future request).
  const Timestamp frontier = frontiers_.frontier();
  if (frontier == collected_frontier_ && !gc_pending_) return 0;

  const auto dead_end = entries_.begin() +
                        static_cast<std::ptrdiff_t>(lower_bound_locked(frontier));
  std::size_t erased = 0;
  auto keep = entries_.begin();
  for (auto it = entries_.begin(); it != dead_end; ++it) {
    const bool collectible = ctx_.gc == gc::Kind::kDeadTimestamp || all_passed(*it);
    if (!collectible) {
      if (keep != it) *keep = std::move(*it);
      ++keep;
      continue;
    }
    if (it->consumed_mask == 0) {
      // Reclaimed without ever being consumed: this is the wasted item the
      // paper's instrumentation marks.
      record(stats::EventType::kDrop, *it->item, now, id_);
      if (met_drops_ != nullptr) met_drops_->add();
    }
    // Defer the payload release (and its accounting) until mu_ is dropped.
    reclaimed.push_back(std::move(it->item));
    ++erased;
  }
  entries_.erase(keep, dead_end);
  collected_frontier_ = frontier;
  gc_pending_ = false;
  return erased;
}

Channel::PutResult Channel::put(std::shared_ptr<Item> item, std::stop_token st) {
  if (!item) throw std::invalid_argument("Channel::put: null item");
  return *put_impl(std::move(item), std::move(st), std::nullopt);
}

std::optional<Channel::PutResult> Channel::try_put(std::shared_ptr<Item> item, Nanos wait) {
  if (!item) throw std::invalid_argument("Channel::try_put: null item");
  return put_impl(std::move(item), std::stop_token{}, wait);
}

std::optional<Channel::PutResult> Channel::put_impl(std::shared_ptr<Item> item,
                                                    std::stop_token st,
                                                    std::optional<Nanos> wait) {
  auto& reclaimed = tl_reclaimed();
  PutResult result;
  {
    util::UniqueLock lock(mu_);

    // Bounded channel: classic backpressure — wait until space frees up,
    // for at most `wait` when one is given, and report "would block" if
    // the channel is still full after it.
    if (config_.capacity > 0) {
      auto has_room = [&] {
        mu_.assert_held();  // the wait re-acquires mu_ before evaluating
        return closed_ || entries_.size() < config_.capacity;
      };
      if (!has_room() && (!wait || wait->count() > 0)) {
        const Nanos wait_start = ctx_.clock->now();
        ++waiters_;
        if (wait) {
          cv_.wait_for(lock, st, *wait, has_room);
        } else {
          cv_.wait(lock, st, has_room);
        }
        --waiters_;
        result.blocked = ctx_.clock->now() - wait_start;
      }
      if (wait && !has_room()) return std::nullopt;
    }
    if (closed_ || st.stop_requested()) {
      result.channel_summary = feedback_.summary();
      return result;
    }

    const std::int64_t now = ctx_.now_ns();
    const Timestamp ts = item->ts();

    // Dead on arrival: a DGC frontier already guarantees no consumer will
    // ever request this timestamp. Recorded as a tagged drop only — no put
    // event — so postmortem put/drop accounting counts the item once.
    const Timestamp frontier = frontiers_.frontier();
    const bool dead = ctx_.gc == gc::Kind::kDeadTimestamp && !consumer_states_.empty() &&
                      ts < frontier;
    if (dead) {
      record(stats::EventType::kDrop, *item, now, id_, /*a=*/1);
      if (met_drops_ != nullptr) met_drops_->add();
    } else {
      record(stats::EventType::kPut, *item, now, id_);
      if (met_puts_ != nullptr) met_puts_->add();
      if (entries_.empty() || entries_.back().ts < ts) {
        // Monotonic producer fast path.
        entries_.push_back(Entry{.ts = ts, .item = std::move(item)});
      } else {
        const std::size_t idx = lower_bound_locked(ts);
        if (idx < entries_.size() && entries_[idx].ts == ts) {
          // Same-timestamp overwrite resets the per-consumer masks, like
          // the map's insert_or_assign did.
          entries_[idx] = Entry{.ts = ts, .item = std::move(item)};
        } else {
          entries_.insert(entries_.begin() + static_cast<std::ptrdiff_t>(idx),
                          Entry{.ts = ts, .item = std::move(item)});
        }
      }
      // An insert below the frontier (possible under TGC / no-consumer
      // channels) must re-arm the collector even if the frontier is
      // unchanged.
      if (ts < frontier) gc_pending_ = true;
    }

    result.stored = !dead;
    result.overhead = ctx_.pressure.scan_cost(entries_.size());
    result.channel_summary = feedback_.summary();
    const std::size_t erased = collect_locked(now, reclaimed);
    if (result.stored || erased > 0) notify_waiters_locked();
    if (result.stored) signal_ready_locked();
    update_gauges_locked();
  }
  reclaimed.clear();  // releases the payloads (pool + accounting) outside mu_
  return result;
}

// The read path's steps. Each is `inline` so the reads compile to one
// body as they did before the steps were split out: called out of line,
// they cost get_latest and get_next 9-17% on micro_channel (4 vCPU,
// Release).
inline Channel::ConsumerState& Channel::enter_locked(int consumer_idx, const char* op,
                                                     Nanos consumer_summary,
                                                     Timestamp extra_guarantee) {
  check_consumer_locked(consumer_idx, op);
  // Feedback piggy-back: fold the consumer's summary-STP into our
  // backwardSTP vector (paper §3.3.2).
  if (ctx_.aru.enabled() && aru::known(consumer_summary)) {
    feedback_.update_backward(consumer_idx, consumer_summary);
  }
  // DGC: raise this consumer's guarantee with its downstream knowledge.
  if (ctx_.gc == gc::Kind::kDeadTimestamp && extra_guarantee != kNoTimestamp) {
    frontiers_.raise(consumer_idx, extra_guarantee);
  }
  return consumer_states_[static_cast<std::size_t>(consumer_idx)];
}

inline bool Channel::wait_locked(util::UniqueLock& lock, const ConsumerState& me,
                                 std::stop_token st, Nanos& blocked) {
  const Nanos wait_start = ctx_.clock->now();
  ++waiters_;
  cv_.wait(lock, std::move(st), [&] {
    mu_.assert_held();  // the wait re-acquires mu_ before evaluating
    return ready_locked(me);
  });
  --waiters_;
  blocked = ctx_.clock->now() - wait_start;
  // Ready means an unseen entry or a closed channel; closed and drained,
  // or a stop request, delivers nothing.
  return !entries_.empty() && entries_.back().ts > me.cursor;
}

inline int Channel::skip_locked(int consumer_idx, std::size_t begin, std::size_t end,
                                std::int64_t now) {
  const std::uint64_t my_bit = 1ULL << consumer_idx;
  const NodeId thread = consumer_states_[static_cast<std::size_t>(consumer_idx)].thread;
  const Timestamp frontier = frontiers_.frontier();
  int skipped = 0;
  for (std::size_t i = begin; i < end; ++i) {
    Entry& e = entries_[i];
    if (((e.skipped_mask | e.consumed_mask) & my_bit) != 0) continue;
    e.skipped_mask |= my_bit;
    record(stats::EventType::kSkip, *e.item, now, thread);
    ++skipped;
    // A lagging consumer can mark entries already below the frontier
    // collectible without moving the frontier itself.
    if (e.ts < frontier) gc_pending_ = true;
  }
  return skipped;
}

inline const std::shared_ptr<Item>& Channel::consume_locked(int consumer_idx,
                                                            std::size_t at,
                                                            std::int64_t now,
                                                            Nanos& transfer,
                                                            Nanos& overhead) {
  const ConsumerState& me = consumer_states_[static_cast<std::size_t>(consumer_idx)];
  Entry& e = entries_[at];
  e.consumed_mask |= 1ULL << consumer_idx;
  record(stats::EventType::kConsume, *e.item, now, me.thread);
  if (met_gets_ != nullptr) met_gets_->add();
  // Consuming can complete an entry below the frontier (random access, a
  // lagging consumer) without moving the frontier itself.
  if (e.ts < frontiers_.frontier()) gc_pending_ = true;
  transfer = ctx_.topology->transfer_time(config_.cluster_node, me.cluster_node,
                                          e.item->bytes());
  overhead = ctx_.pressure.scan_cost(entries_.size());
  return e.item;
}

inline void Channel::settle_locked(std::int64_t now) {
  const std::size_t erased = collect_locked(now, tl_reclaimed());
  // A bounded channel may have freed space for blocked producers.
  if (config_.capacity > 0 && erased > 0) notify_waiters_locked();
  update_gauges_locked();
}

Channel::GetResult Channel::get_latest(int consumer_idx, Nanos consumer_summary,
                                       Timestamp extra_guarantee, std::stop_token st) {
  GetResult result;
  {
    util::UniqueLock lock(mu_);
    ConsumerState& me =
        enter_locked(consumer_idx, "Channel::get_latest", consumer_summary, extra_guarantee);
    if (!wait_locked(lock, me, std::move(st), result.blocked)) return result;

    // Consume the newest entry and skip everything between the cursor and
    // it — the paper's skip-over semantics.
    const std::int64_t now = ctx_.now_ns();
    const std::size_t newest = entries_.size() - 1;
    result.skipped = skip_locked(consumer_idx, lower_bound_locked(me.cursor + 1), newest, now);
    result.item = consume_locked(consumer_idx, newest, now, result.transfer, result.overhead);
    me.cursor = entries_[newest].ts;
    // The consumer will never again request a timestamp <= the cursor.
    frontiers_.raise(consumer_idx, me.cursor + 1);
    settle_locked(now);
  }
  tl_reclaimed().clear();  // releases the payloads (pool + accounting) outside mu_
  return result;
}

Channel::GetResult Channel::get_next(int consumer_idx, Nanos consumer_summary,
                                     Timestamp extra_guarantee, std::stop_token st) {
  GetResult result;
  {
    util::UniqueLock lock(mu_);
    ConsumerState& me =
        enter_locked(consumer_idx, "Channel::get_next", consumer_summary, extra_guarantee);
    if (!wait_locked(lock, me, std::move(st), result.blocked)) return result;

    const std::int64_t now = ctx_.now_ns();
    const std::size_t oldest = lower_bound_locked(me.cursor + 1);
    result.item = consume_locked(consumer_idx, oldest, now, result.transfer, result.overhead);
    me.cursor = entries_[oldest].ts;
    frontiers_.raise(consumer_idx, me.cursor + 1);
    settle_locked(now);
  }
  tl_reclaimed().clear();  // releases the payloads (pool + accounting) outside mu_
  return result;
}

Channel::GetResult Channel::get_at(int consumer_idx, Timestamp ts, Nanos consumer_summary) {
  GetResult result;
  const util::MutexLock lock(mu_);
  enter_locked(consumer_idx, "Channel::get_at", consumer_summary, kNoTimestamp);
  const std::size_t idx = find_locked(ts);
  if (idx < entries_.size()) {
    result.item =
        consume_locked(consumer_idx, idx, ctx_.now_ns(), result.transfer, result.overhead);
  }
  // Random access does not move the cursor or raise any guarantee.
  return result;
}

Channel::GetResult Channel::get_nearest(int consumer_idx, Timestamp ts, Timestamp tolerance,
                                        Nanos consumer_summary) {
  if (tolerance < 0) throw std::invalid_argument("Channel::get_nearest: negative tolerance");
  GetResult result;
  const util::MutexLock lock(mu_);
  enter_locked(consumer_idx, "Channel::get_nearest", consumer_summary, kNoTimestamp);

  // Candidates: the first entry at/after ts, and its predecessor.
  std::size_t best = entries_.size();
  Timestamp best_dist = 0;
  const std::size_t after = lower_bound_locked(ts);
  auto consider = [&](std::size_t idx) {
    if (idx >= entries_.size()) return;
    const Timestamp ets = entries_[idx].ts;
    const Timestamp dist = ets >= ts ? ets - ts : ts - ets;
    if (dist > tolerance) return;
    // Prefer smaller distance; on ties prefer the newer timestamp.
    if (best >= entries_.size() || dist < best_dist ||
        (dist == best_dist && ets > entries_[best].ts)) {
      best = idx;
      best_dist = dist;
    }
  };
  consider(after);
  if (after > 0) consider(after - 1);
  if (best < entries_.size()) {
    result.item =
        consume_locked(consumer_idx, best, ctx_.now_ns(), result.transfer, result.overhead);
  }
  return result;
}

Channel::WindowResult Channel::get_window(int consumer_idx, std::size_t window,
                                          Nanos consumer_summary, std::stop_token st) {
  if (window == 0) throw std::invalid_argument("Channel::get_window: window must be > 0");
  WindowResult result;
  {
    util::UniqueLock lock(mu_);
    ConsumerState& me =
        enter_locked(consumer_idx, "Channel::get_window", consumer_summary, kNoTimestamp);
    if (!wait_locked(lock, me, std::move(st), result.blocked)) return result;

    // The newest `window` entries, ascending; the newest is consumed, the
    // window's older members are only observed, and everything older than
    // the window this consumer never consumed is skipped: the unseen
    // entries the cursor jumps, and the members the window left behind.
    const std::int64_t now = ctx_.now_ns();
    const std::size_t count = std::min(window, entries_.size());
    const std::size_t first = entries_.size() - count;
    result.items.reserve(count);
    for (std::size_t i = first; i < entries_.size(); ++i) {
      result.items.push_back(entries_[i].item);
    }
    skip_locked(consumer_idx, 0, first, now);
    consume_locked(consumer_idx, entries_.size() - 1, now, result.transfer, result.overhead);
    me.cursor = entries_.back().ts;
    // Hold the guarantee back at the window tail so the window's older
    // members stay collectible only once they fall out of every window.
    frontiers_.raise(consumer_idx, entries_[first].ts);
    settle_locked(now);
  }
  tl_reclaimed().clear();  // releases the payloads (pool + accounting) outside mu_
  return result;
}

void Channel::raise_guarantee(int consumer_idx, Timestamp g) {
  {
    const util::MutexLock lock(mu_);
    check_consumer_locked(consumer_idx, "Channel::raise_guarantee");
    frontiers_.raise(consumer_idx, g);
    // Mark now-dead, never-touched entries as skipped by this consumer so
    // Transparent GC can also reclaim them.
    const std::int64_t now = ctx_.now_ns();
    skip_locked(consumer_idx, 0, lower_bound_locked(g), now);
    settle_locked(now);
  }
  tl_reclaimed().clear();  // releases the payloads (pool + accounting) outside mu_
}

Timestamp Channel::latest_ts() const {
  const util::MutexLock lock(mu_);
  return entries_.empty() ? kNoTimestamp : entries_.back().ts;
}

bool Channel::ready_locked(const ConsumerState& c) const {
  return closed_ || (!entries_.empty() && entries_.back().ts > c.cursor);
}

void Channel::signal_ready_locked() {
  for (ConsumerState& c : consumer_states_) {
    if (c.wakeup == nullptr || !ready_locked(c)) continue;
    c.wakeup->signal();
    c.wakeup = nullptr;
  }
}

bool Channel::arm_ready(int consumer_idx, util::Wakeup& wakeup) {
  const util::MutexLock lock(mu_);
  check_consumer_locked(consumer_idx, "Channel::arm_ready");
  ConsumerState& me = consumer_states_[static_cast<std::size_t>(consumer_idx)];
  const bool ready = ready_locked(me);
  me.wakeup = ready ? nullptr : &wakeup;
  return ready;
}

void Channel::disarm_ready(int consumer_idx, const util::Wakeup& wakeup) {
  const util::MutexLock lock(mu_);
  check_consumer_locked(consumer_idx, "Channel::disarm_ready");
  ConsumerState& me = consumer_states_[static_cast<std::size_t>(consumer_idx)];
  if (me.wakeup == &wakeup) me.wakeup = nullptr;
}

bool Channel::closed() const {
  const util::MutexLock lock(mu_);
  return closed_;
}

void Channel::close() {
  const util::MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
  signal_ready_locked();
}

std::size_t Channel::size() const {
  const util::MutexLock lock(mu_);
  return entries_.size();
}

Timestamp Channel::frontier() const {
  const util::MutexLock lock(mu_);
  return frontiers_.frontier();
}

Nanos Channel::summary() const {
  const util::MutexLock lock(mu_);
  return feedback_.summary();
}

std::size_t Channel::consumers() const {
  const util::MutexLock lock(mu_);
  return consumer_states_.size();
}

std::size_t Channel::producers() const {
  const util::MutexLock lock(mu_);
  return producer_count_;
}

}  // namespace stampede
