/// \file item.hpp
/// \brief Timestamped data item — the unit of communication, accounting
///        and garbage collection.
///
/// An item owns its payload bytes — a `PayloadBuffer` drawn from the
/// run's `PayloadPool` (always: contexts must provide a pool, which
/// decides whether the payload is a recycled frame-scale slab or an
/// exact-size heap buffer). Channels and consumers share ownership via
/// shared_ptr; the memory is accounted as *freed* when the last reference
/// drops (exactly when the bytes become reclaimable), which the destructor
/// reports to the MemoryTracker and the trace — and that same
/// last-reference drop is what recycles a frame-scale slab into the pool.
///
/// Payloads are NOT zero-filled: every producer overwrites its payload
/// before putting the item (vision's stride-grid discipline keeps readers
/// on exactly the bytes writers touched). Debug builds poison fresh
/// payloads with 0xA5 instead (see PayloadPool's constructor).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "runtime/context.hpp"
#include "runtime/pool.hpp"
#include "runtime/types.hpp"
#include "util/static_annotations.hpp"

namespace stampede {

class Item {
 public:
  /// Creates an item and accounts its allocation (tracker + trace).
  ///
  /// \param ctx          run services; must outlive the item.
  /// \param ts           virtual timestamp.
  /// \param bytes        payload size (uninitialized; producer overwrites).
  /// \param producer     producing thread node.
  /// \param cluster_node virtual cluster node charged for the memory.
  /// \param lineage      ids of the input items this one was derived from.
  /// \param produce_cost compute time spent producing it (trace metadata).
  ARU_HOT_PATH Item(RunContext& ctx, Timestamp ts, std::size_t bytes, NodeId producer,
                    int cluster_node, std::vector<ItemId> lineage, Nanos produce_cost);

  /// Creates an item around a payload that already exists: a pooled
  /// buffer the caller fills, or a borrowed view (see charged_bytes()).
  ARU_HOT_PATH Item(RunContext& ctx, Timestamp ts, PayloadBuffer payload, NodeId producer,
                    int cluster_node, std::vector<ItemId> lineage, Nanos produce_cost);

  /// Accounts the release (tracker + trace). May run on any thread.
  ~Item();

  Item(const Item&) = delete;
  Item& operator=(const Item&) = delete;

  ItemId id() const { return id_; }
  Timestamp ts() const { return ts_; }
  /// Logical payload size as requested — not the (rounded) slab size.
  std::size_t bytes() const { return data_.size(); }
  /// Bytes this item charges to its runtime's memory tracker and trace:
  /// its size, or 0 when it borrows a peer's bytes — a byte counts once,
  /// where it lives, and the lender's own item counts it until released.
  std::size_t charged_bytes() const { return data_.borrowed() ? 0 : data_.size(); }
  NodeId producer() const { return producer_; }
  int cluster_node() const { return cluster_node_; }
  Nanos produce_cost() const { return produce_cost_; }

  /// Sets the production cost after the fact (the runtime attributes
  /// accumulated compute when the item is put into its buffer).
  void set_produce_cost(Nanos cost) { produce_cost_ = cost; }
  std::int64_t t_alloc() const { return t_alloc_; }
  const std::vector<ItemId>& lineage() const { return lineage_; }

  /// Payload access. Producers fill the payload before putting the item
  /// into a channel; after that, consumers only use the const view. A
  /// borrowed payload is read-only: its mutable view is empty.
  std::span<std::byte> mutable_data() { return data_.span(); }
  std::span<const std::byte> data() const { return data_.span(); }
  /// The buffer behind data(): whose bytes they are (net/peer_arena.hpp
  /// lends a borrowed item on by naming its lender's arena).
  const PayloadBuffer& payload() const { return data_; }

 private:
  RunContext& ctx_;
  ItemId id_;
  Timestamp ts_;
  NodeId producer_;
  int cluster_node_;
  Nanos produce_cost_;
  std::int64_t t_alloc_;
  std::vector<ItemId> lineage_;
  PayloadBuffer data_;
};

}  // namespace stampede
