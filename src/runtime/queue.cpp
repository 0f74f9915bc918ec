#include "runtime/queue.hpp"

#include <stdexcept>

namespace stampede {

namespace {
aru::Mode effective_mode(aru::Mode global, const aru::CompressFn& custom) {
  if (global == aru::Mode::kOff || !custom) return global;
  return aru::Mode::kCustom;
}
}  // namespace

Queue::Queue(RunContext& ctx, NodeId id, QueueConfig config, aru::Mode mode,
             std::unique_ptr<Filter> filter)
    : ctx_(ctx),
      id_(id),
      config_(std::move(config)),
      feedback_(effective_mode(mode, config_.custom_compress), /*is_thread=*/false,
                config_.custom_compress, std::move(filter)) {}

void Queue::register_producer(NodeId /*thread*/) {}

int Queue::register_consumer(NodeId thread, int cluster_node) {
  // Single-threaded construction phase; locked to keep the annotations
  // sound (see Channel::register_consumer).
  const util::MutexLock lock(mu_);
  consumer_states_.push_back(ConsumerState{.thread = thread, .cluster_node = cluster_node});
  feedback_.add_output();
  return static_cast<int>(consumer_states_.size()) - 1;
}

Queue::PutResult Queue::put(std::shared_ptr<Item> item, std::stop_token st) {
  if (!item) throw std::invalid_argument("Queue::put: null item");
  util::UniqueLock lock(mu_);

  PutResult result;
  if (config_.capacity > 0) {
    const Nanos wait_start = ctx_.clock->now();
    cv_.wait(lock, st, [&] {
      mu_.assert_held();
      return closed_ || items_.size() < config_.capacity;
    });
    result.blocked = ctx_.clock->now() - wait_start;
  }
  if (closed_ || st.stop_requested()) {
    result.queue_summary = feedback_.summary();
    return result;
  }

  const std::int64_t now = ctx_.now_ns();
  ctx_.recorder->record(stats::Event{.type = stats::EventType::kPut,
                                     .node = id_,
                                     .ts = item->ts(),
                                     .item = item->id(),
                                     .t = now});
  items_.push_back(std::move(item));
  result.stored = true;
  result.overhead = ctx_.pressure.scan_cost(items_.size());
  result.queue_summary = feedback_.summary();
  cv_.notify_all();
  return result;
}

Queue::GetResult Queue::get(int consumer_idx, Nanos consumer_summary, std::stop_token st) {
  util::UniqueLock lock(mu_);
  if (consumer_idx < 0 || static_cast<std::size_t>(consumer_idx) >= consumer_states_.size()) {
    throw std::out_of_range("Queue::get: bad consumer index");
  }
  const ConsumerState& me = consumer_states_[static_cast<std::size_t>(consumer_idx)];

  GetResult result;
  if (ctx_.aru.enabled() && aru::known(consumer_summary)) {
    feedback_.update_backward(consumer_idx, consumer_summary);
  }

  const Nanos wait_start = ctx_.clock->now();
  cv_.wait(lock, st, [&] {
    mu_.assert_held();
    return closed_ || !items_.empty();
  });
  result.blocked = ctx_.clock->now() - wait_start;

  if (items_.empty()) return result;  // closed & drained, or stop requested

  result.item = items_.front();
  items_.pop_front();

  const std::int64_t now = ctx_.now_ns();
  ctx_.recorder->record(stats::Event{.type = stats::EventType::kConsume,
                                     .node = me.thread,
                                     .ts = result.item->ts(),
                                     .item = result.item->id(),
                                     .t = now});
  result.transfer = ctx_.topology->transfer_time(config_.cluster_node, me.cluster_node,
                                                 result.item->bytes());
  result.overhead = ctx_.pressure.scan_cost(items_.size());
  cv_.notify_all();
  return result;
}

void Queue::close() {
  const util::MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::size_t Queue::size() const {
  const util::MutexLock lock(mu_);
  return items_.size();
}

Nanos Queue::summary() const {
  const util::MutexLock lock(mu_);
  return feedback_.summary();
}

}  // namespace stampede
