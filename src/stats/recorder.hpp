/// \file recorder.hpp
/// \brief Low-overhead trace recorder: one shard per writing thread.
///
/// Every thread that records into a `Recorder` writes a shard of its own.
/// The recorder creates it on the thread's first record and owns it; the
/// thread finds it again through a thread-local cache keyed by the
/// recorder's process-unique id. A shard has one writer for its whole
/// life, so an append takes no lock and may run anywhere, under a
/// data-plane lock included. Shards store events in chunks of at most
/// 4096, so an append never moves what is already recorded. `merge()`
/// collects and time-sorts everything into a `Trace` after the writers
/// have stopped.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "stats/events.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::stats {

namespace detail {

/// Append-only storage in chunks. Growing it allocates one more chunk
/// (and, now and then, a slot in the small chunk table); no stored element
/// is ever copied or moved. Chunks double from kFirst elements up to N and
/// stay at N, so a thread that records a handful of events holds a few KB.
template <typename T, std::size_t N>
class ChunkLog {
 public:
  void push_entry(T v) {
    if (used_ == cap_) {
      cap_ = chunks_.empty() ? kFirst : std::min(cap_ * 2, N);
      chunks_.push_back(std::make_unique<T[]>(cap_));
      used_ = 0;
    }
    chunks_.back()[used_++] = std::move(v);
    ++size_;
  }

  std::size_t size() const { return size_; }

  /// Appends every element, in recording order, to `out`.
  template <typename Vec>
  void append_to(Vec& out) const {
    std::size_t left = size_;
    std::size_t cap = kFirst;
    for (const auto& chunk : chunks_) {
      const std::size_t n = std::min(left, cap);
      out.insert(out.end(), chunk.get(), chunk.get() + n);
      left -= n;
      cap = std::min(cap * 2, N);
    }
  }

 private:
  static constexpr std::size_t kFirst = 64;
  static_assert(N >= kFirst);

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::size_t cap_ = 0;   ///< capacity of the last chunk
  std::size_t used_ = 0;  ///< elements in the last chunk
  std::size_t size_ = 0;
};

/// The events and item records of one thread, in recording order.
struct Shard {
  explicit Shard(std::uint64_t owner_token) : owner(owner_token) {}

  const std::uint64_t owner;  ///< token of the one thread that writes it
  Shard* next = nullptr;      ///< registry link, fixed before publication
  ChunkLog<Event, 4096> events;
  ChunkLog<ItemRecord, 1024> items;
};

/// One entry of a thread's shard cache: its shard in recorder `recorder`.
struct ShardSlot {
  std::uint64_t recorder = 0;  ///< 0: empty (recorder ids start at 1)
  Shard* shard = nullptr;
};

/// The calling thread's shards in the recorders it used most recently,
/// newest first. A stale slot (its recorder destroyed) is never matched:
/// recorder ids are never reused.
inline thread_local std::array<ShardSlot, 4> tl_shards{};

}  // namespace detail

/// Owns every thread's shard and merges them postmortem.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  /// Appends one event to the calling thread's shard. Lock-free after the
  /// thread's first record into this recorder.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("trace plane: appends to the calling thread's own shard without a lock; storage grows one chunk at a time (at most 4096 events) and never copies what is recorded")
  void record(const Event& e) { shard().events.push_entry(e); }

  /// Appends one item record to the calling thread's shard.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("trace plane: lock-free append to the calling thread's own shard; the record owns its item's lineage vector, and storage grows one chunk at a time without copying")
  void record_item(ItemRecord rec) { shard().items.push_entry(std::move(rec)); }

  /// Registers a node's display name (node ids are dense, assigned by the
  /// runtime graph).
  void set_node_name(NodeRef node, std::string name);

  /// Allocates a fresh globally unique item id (thread-safe).
  ItemId next_item_id() { return next_id_.fetch_add(1, std::memory_order_relaxed) + 1; }

  /// Thread-safe run-progress counter (used by Runtime::wait_emits).
  void count_emit() { emits_.fetch_add(1, std::memory_order_relaxed); }
  std::int64_t emits() const { return emits_.load(std::memory_order_relaxed); }

  /// Merges all shards into one time-sorted trace; events with equal
  /// times keep each shard's order. Call only after every writer thread
  /// has stopped (the happens-before edge is their join) or is the caller.
  /// `t_begin`/`t_end` bound the observation window (clock instants).
  Trace merge(std::int64_t t_begin, std::int64_t t_end) const;

 private:
  detail::Shard& shard() {
    const detail::ShardSlot& first = detail::tl_shards[0];
    return first.recorder == id_ ? *first.shard : attach();
  }

  /// Slow path of shard(): finds the calling thread's shard (another
  /// cache slot, or the registry after an eviction) or creates and
  /// registers it, and moves it to the front of the thread's cache.
  ARU_ALLOCATES detail::Shard& attach();

  /// Process-unique, never reused: keys the per-thread shard caches.
  const std::uint64_t id_;
  /// Registry of shards, newest first. Pushed lock-free by each thread's
  /// first record, which may run under any lock, a leaf included (a view
  /// returns its lease under net::ReleaseList's); freed with the recorder.
  std::atomic<detail::Shard*> shards_{nullptr};
  /// Guards only the node names; nothing is acquired under it.
  mutable util::Mutex mu_{util::LockRank::kLeaf, "recorder.names"};
  std::vector<std::string> node_names_ GUARDED_BY(mu_);
  std::atomic<ItemId> next_id_{0};
  std::atomic<std::int64_t> emits_{0};
};

}  // namespace stampede::stats
