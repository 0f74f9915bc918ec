#include "stats/recorder.hpp"

#include <algorithm>

namespace stampede::stats {

const char* to_string(EventType type) {
  switch (type) {
    case EventType::kAlloc: return "alloc";
    case EventType::kFree: return "free";
    case EventType::kPut: return "put";
    case EventType::kConsume: return "consume";
    case EventType::kSkip: return "skip";
    case EventType::kDrop: return "drop";
    case EventType::kCompute: return "compute";
    case EventType::kElide: return "elide";
    case EventType::kEmit: return "emit";
    case EventType::kDisplay: return "display";
    case EventType::kStp: return "stp";
    case EventType::kSleep: return "sleep";
    case EventType::kBlocked: return "blocked";
    case EventType::kTransfer: return "transfer";
    case EventType::kOverhead: return "overhead";
    case EventType::kGauge: return "gauge";
    case EventType::kReplicate: return "replicate";
    case EventType::kReplicaFree: return "replica-free";
    case EventType::kNetTx: return "net-tx";
    case EventType::kNetRx: return "net-rx";
    case EventType::kReconnect: return "reconnect";
  }
  return "?";
}

namespace {

/// Recorder ids start at 1 (0 marks an empty cache slot) and never repeat.
std::atomic<std::uint64_t> g_next_recorder_id{0};

/// Tokens name threads for shard ownership. Unlike std::thread::id, a
/// token is never reused after its thread exits, so a shard is never
/// handed to another thread.
std::atomic<std::uint64_t> g_next_thread_token{0};

std::uint64_t this_thread_token() {
  static thread_local const std::uint64_t token =
      g_next_thread_token.fetch_add(1, std::memory_order_relaxed) + 1;
  return token;
}

}  // namespace

Recorder::Recorder() : id_(g_next_recorder_id.fetch_add(1, std::memory_order_relaxed) + 1) {}

Recorder::~Recorder() {
  detail::Shard* s = shards_.load(std::memory_order_acquire);
  while (s != nullptr) {
    detail::Shard* next = s->next;
    delete s;
    s = next;
  }
}

detail::Shard& Recorder::attach() {
  auto& slots = detail::tl_shards;
  detail::Shard* found = nullptr;
  std::size_t at = slots.size() - 1;  // the slot a new entry evicts
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].recorder == id_) {
      found = slots[i].shard;
      at = i;
      break;
    }
  }
  if (found == nullptr) {
    // Evicted from the cache earlier: the registry still holds it.
    const std::uint64_t token = this_thread_token();
    for (detail::Shard* s = shards_.load(std::memory_order_acquire); s != nullptr;
         s = s->next) {
      if (s->owner == token) {
        found = s;
        break;
      }
    }
    if (found == nullptr) {
      found = new detail::Shard(token);
      found->next = shards_.load(std::memory_order_relaxed);
      while (!shards_.compare_exchange_weak(found->next, found, std::memory_order_release,
                                            std::memory_order_relaxed)) {
      }
    }
  }
  for (std::size_t i = at; i > 0; --i) slots[i] = slots[i - 1];
  slots[0] = detail::ShardSlot{.recorder = id_, .shard = found};
  return *found;
}

void Recorder::set_node_name(NodeRef node, std::string name) {
  const util::MutexLock lock(mu_);
  if (node < 0) return;
  if (static_cast<std::size_t>(node) >= node_names_.size()) {
    node_names_.resize(static_cast<std::size_t>(node) + 1);
  }
  node_names_[static_cast<std::size_t>(node)] = std::move(name);
}

Trace Recorder::merge(std::int64_t t_begin, std::int64_t t_end) const {
  Trace trace;
  trace.t_begin = t_begin;
  trace.t_end = t_end;
  {
    const util::MutexLock lock(mu_);
    trace.node_names = node_names_;
  }

  // The registry is newest first; merge in registration order.
  std::vector<const detail::Shard*> shards;
  std::size_t total_events = 0;
  std::size_t total_items = 0;
  for (const detail::Shard* s = shards_.load(std::memory_order_acquire); s != nullptr;
       s = s->next) {
    shards.push_back(s);
    total_events += s->events.size();
    total_items += s->items.size();
  }
  trace.events.reserve(total_events);
  trace.items.reserve(total_items);
  for (auto it = shards.rbegin(); it != shards.rend(); ++it) {
    (*it)->events.append_to(trace.events);
    (*it)->items.append_to(trace.items);
  }

  std::stable_sort(trace.events.begin(), trace.events.end(),
                   [](const Event& a, const Event& b) { return a.t < b.t; });
  std::sort(trace.items.begin(), trace.items.end(),
            [](const ItemRecord& a, const ItemRecord& b) { return a.id < b.id; });
  return trace;
}

}  // namespace stampede::stats
