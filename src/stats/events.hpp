/// \file events.hpp
/// \brief Trace event model for the measurement infrastructure (paper §4).
///
/// "Each interaction of an item with the operating system (allocation,
/// deallocation, etc.) is recorded. Items that do not make it to the end
/// of the pipeline are marked ... A postmortem analysis program uses these
/// statistics to derive the metrics of interest." — we reproduce exactly
/// that pipeline: the runtime emits `Event`s and `ItemRecord`s into a
/// `Recorder`; `Analyzer` (postmortem.hpp) derives every metric the paper
/// reports, including the Ideal-GC bound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace stampede::stats {

/// Globally unique item identity within one run (0 = none).
using ItemId = std::uint64_t;

/// Graph node identity (matches runtime::NodeId; -1 = none).
using NodeRef = std::int32_t;

/// Virtual-time index (matches runtime::Timestamp; -1 = none).
using Ts = std::int64_t;

enum class EventType : std::uint8_t {
  kAlloc,     ///< item created: a = bytes, b = cluster node
  kFree,      ///< item memory released: a = bytes
  kPut,       ///< item inserted into a channel/queue: node = buffer node
  kConsume,   ///< item consumed by a consumer: node = consumer thread
  kSkip,      ///< item skipped over by a consumer: node = consumer thread
  kDrop,      ///< item reclaimed without ever being consumed by anyone;
              ///< a = 1 when it was dead on arrival (never stored — no
              ///< matching kPut is recorded for such items)
  kCompute,   ///< one unit of task work: a = duration ns, item = output (0 if none)
  kElide,     ///< DGC computation elimination: a = saved duration ns
  kEmit,      ///< a result left the pipeline at a sink: ts = frame index
  kDisplay,   ///< one sink refresh (output frame): ts = newest displayed index
  kStp,       ///< STP sample: a = current-STP ns, b = summary-STP ns
  kSleep,     ///< ARU pacing sleep: a = duration ns
  kBlocked,   ///< time spent blocked on an empty buffer: a = duration ns
  kTransfer,  ///< inter-node transfer, simulated or a real remote get:
              ///< a = duration ns, b = bytes
  kOverhead,  ///< buffer-management / memory-pressure overhead: a = ns
  kGauge,     ///< periodic monitor sample: node = buffer (or -1 = global),
              ///< a = items stored (or total bytes), b = cluster-node
              ///< bytes (or peak bytes)
  kReplicate,   ///< remote copy materialized on a consumer's node:
                ///< a = bytes, b = consumer cluster node
  kReplicaFree, ///< remote copy released: a = bytes, b = cluster node
  kNetTx,       ///< wire frame sent: a = bytes, b = message type (net::MsgType)
  kNetRx,       ///< wire frame received: a = bytes, b = message type
  kReconnect,   ///< transport reconnected after link loss:
                ///< a = failed attempts before success, b = last backoff ns
};

/// One trace event. Compact fixed-size POD; semantics of a/b depend on type.
struct Event {
  EventType type{};
  NodeRef node = -1;
  Ts ts = -1;
  ItemId item = 0;
  std::int64_t t = 0;  ///< clock instant, ns
  std::int64_t a = 0;
  std::int64_t b = 0;
};

/// Immutable per-item metadata captured at allocation time.
struct ItemRecord {
  ItemId id = 0;
  Ts ts = -1;
  std::int64_t bytes = 0;
  NodeRef producer = -1;       ///< producing thread node
  std::int32_t cluster_node = 0;
  std::int64_t t_alloc = 0;    ///< creation instant, ns
  std::int64_t produce_cost = 0;  ///< compute ns spent producing it
  std::vector<ItemId> lineage;    ///< input items it was derived from
};

/// A merged, time-sorted trace plus the item table and node names.
struct Trace {
  std::vector<Event> events;        ///< sorted by t (stable)
  std::vector<ItemRecord> items;    ///< indexed lookups via id map in Analyzer
  std::vector<std::string> node_names;  ///< node id -> display name
  std::int64_t t_begin = 0;
  std::int64_t t_end = 0;
};

/// Short display tag for an event type (trace dumps / debugging).
const char* to_string(EventType type);

}  // namespace stampede::stats
