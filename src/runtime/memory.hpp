/// \file memory.hpp
/// \brief Live memory accounting, per virtual cluster node and global.
///
/// Every item payload registers its size on allocation and deregisters on
/// release; the tracker feeds (a) the pressure model (per-node resident
/// bytes) and (b) live diagnostics. The authoritative footprint *metrics*
/// (time-weighted mean/σ, Figs. 6, 8, 9) are computed postmortem from
/// alloc/free trace events, not from this tracker.
///
/// Thread-safety: fully lock-free. All counters are relaxed atomics —
/// they are monotonic tallies with no cross-counter invariant a reader
/// could observe torn (node/total/peak may be mutually stale by a few
/// operations, which the pressure model tolerates by design). The peak
/// is maintained with a CAS loop so concurrent allocations can never
/// lower it. Item destructors call on_free from arbitrary threads,
/// sometimes under a channel lock — keeping this class lock-free keeps
/// it off the lock hierarchy entirely.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

namespace stampede {

class MemoryTracker {
 public:
  /// \param cluster_nodes number of virtual cluster nodes being tracked.
  explicit MemoryTracker(int cluster_nodes);

  MemoryTracker(const MemoryTracker&) = delete;
  MemoryTracker& operator=(const MemoryTracker&) = delete;

  void on_alloc(int node, std::int64_t bytes);
  void on_free(int node, std::int64_t bytes);

  /// Resident bytes on one cluster node.
  std::int64_t node_bytes(int node) const;

  /// Resident bytes across the whole cluster.
  std::int64_t total_bytes() const { return total_.load(std::memory_order_relaxed); }

  /// High-water mark of total_bytes().
  std::int64_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  int nodes() const { return nodes_; }

 private:
  int nodes_;
  std::unique_ptr<std::atomic<std::int64_t>[]> per_node_;
  std::atomic<std::int64_t> total_{0};
  std::atomic<std::int64_t> peak_{0};
};

}  // namespace stampede
