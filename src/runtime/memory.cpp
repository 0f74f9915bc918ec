#include "runtime/memory.hpp"

#include <stdexcept>

namespace stampede {

MemoryTracker::MemoryTracker(int cluster_nodes) : nodes_(cluster_nodes) {
  if (cluster_nodes <= 0) {
    throw std::invalid_argument("MemoryTracker: cluster node count must be positive");
  }
  per_node_ = std::make_unique<std::atomic<std::int64_t>[]>(static_cast<std::size_t>(cluster_nodes));
  for (int i = 0; i < cluster_nodes; ++i) per_node_[i].store(0, std::memory_order_relaxed);
}

void MemoryTracker::on_alloc(int node, std::int64_t bytes) {
  if (node < 0 || node >= nodes_) throw std::out_of_range("MemoryTracker: bad node");
  per_node_[node].fetch_add(bytes, std::memory_order_relaxed);
  const std::int64_t now = total_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  // Lock-free peak update.
  std::int64_t prev = peak_.load(std::memory_order_relaxed);
  while (now > prev && !peak_.compare_exchange_weak(prev, now, std::memory_order_relaxed)) {
  }
}

void MemoryTracker::on_free(int node, std::int64_t bytes) {
  if (node < 0 || node >= nodes_) throw std::out_of_range("MemoryTracker: bad node");
  per_node_[node].fetch_sub(bytes, std::memory_order_relaxed);
  total_.fetch_sub(bytes, std::memory_order_relaxed);
}

std::int64_t MemoryTracker::node_bytes(int node) const {
  if (node < 0 || node >= nodes_) throw std::out_of_range("MemoryTracker: bad node");
  return per_node_[node].load(std::memory_order_relaxed);
}

}  // namespace stampede
