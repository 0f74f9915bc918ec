#include "runtime/item.hpp"

namespace stampede {

const char* to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kThread: return "thread";
    case NodeKind::kChannel: return "channel";
    case NodeKind::kQueue: return "queue";
  }
  return "?";
}

Item::Item(RunContext& ctx, Timestamp ts, std::size_t bytes, NodeId producer,
           int cluster_node, std::vector<ItemId> lineage, Nanos produce_cost)
    : Item(ctx, ts, ctx.pool->acquire(bytes), producer, cluster_node, std::move(lineage),
           produce_cost) {}

Item::Item(RunContext& ctx, Timestamp ts, PayloadBuffer payload, NodeId producer,
           int cluster_node, std::vector<ItemId> lineage, Nanos produce_cost)
    : ctx_(ctx),
      id_(ctx.recorder->next_item_id()),
      ts_(ts),
      producer_(producer),
      cluster_node_(cluster_node),
      produce_cost_(produce_cost),
      t_alloc_(ctx.now_ns()),
      lineage_(std::move(lineage)),
      data_(std::move(payload)) {
  ctx_.tracker->on_alloc(cluster_node_, static_cast<std::int64_t>(charged_bytes()));
}

Item::~Item() {
  const std::int64_t bytes = static_cast<std::int64_t>(charged_bytes());
  ctx_.tracker->on_free(cluster_node_, bytes);
  ctx_.recorder->record(stats::Event{
      .type = stats::EventType::kFree,
      .node = producer_,
      .ts = ts_,
      .item = id_,
      .t = ctx_.now_ns(),
      .a = bytes,
      .b = cluster_node_,
  });
}

}  // namespace stampede
