/// \file queue.hpp
/// \brief FIFO queue: Stampede's second buffer abstraction.
///
/// Unlike a Channel, a Queue delivers every item exactly once, in
/// timestamp-arrival order, to exactly one of its consumers (multiple
/// consumers compete for items — work-queue semantics). Queues still
/// participate fully in ARU feedback: consumers piggy-back their
/// summary-STP on every `get`, producers receive the queue's summary on
/// every `put` (queues, like channels, have no current-STP of their own —
/// paper §3.3.2).
#pragma once

#include <condition_variable>
#include <deque>
#include <memory>
#include <stop_token>
#include <string>

#include "core/feedback.hpp"
#include "runtime/context.hpp"
#include "runtime/item.hpp"
#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace stampede {

struct QueueConfig {
  std::string name;
  int cluster_node = 0;
  /// Maximum queued items; 0 = unbounded. A bounded queue blocks `put`.
  std::size_t capacity = 0;
  aru::CompressFn custom_compress;
  std::string filter;
};

class Queue {
 public:
  Queue(RunContext& ctx, NodeId id, QueueConfig config, aru::Mode mode,
        std::unique_ptr<Filter> filter);

  void register_producer(NodeId thread);
  int register_consumer(NodeId thread, int cluster_node);

  struct PutResult {
    Nanos queue_summary{0};
    Nanos overhead{0};
    Nanos blocked{0};
    bool stored = false;
  };

  /// Appends `item`; blocks while a bounded queue is full.
  PutResult put(std::shared_ptr<Item> item, std::stop_token st);

  struct GetResult {
    std::shared_ptr<const Item> item;  ///< nullptr when closed & drained
    Nanos blocked{0};
    Nanos transfer{0};
    Nanos overhead{0};
  };

  /// Pops the oldest item; blocks until one exists or the queue closes.
  GetResult get(int consumer_idx, Nanos consumer_summary, std::stop_token st);

  void close();

  NodeId id() const { return id_; }
  const std::string& name() const { return config_.name; }
  int cluster_node() const { return config_.cluster_node; }
  std::size_t size() const;
  Nanos summary() const;

 private:
  struct ConsumerState {
    NodeId thread = kNoNode;
    int cluster_node = 0;
  };

  RunContext& ctx_;
  NodeId id_;
  QueueConfig config_;
  mutable util::Mutex mu_{util::LockRank::kBuffer, "queue.mu"};
  std::condition_variable_any cv_;
  std::deque<std::shared_ptr<Item>> items_ GUARDED_BY(mu_);
  std::vector<ConsumerState> consumer_states_ GUARDED_BY(mu_);
  aru::FeedbackState feedback_ GUARDED_BY(mu_);
  bool closed_ GUARDED_BY(mu_) = false;
};

}  // namespace stampede
