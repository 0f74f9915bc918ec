/// \file remote.hpp
/// \brief Abstract remote buffer endpoint — the runtime's view of a
///        channel living in another OS process.
///
/// The runtime layer knows nothing about sockets: `src/net/` implements
/// this interface (net::RemoteChannel) and registers it through
/// `Runtime::connect`, so a task body cannot tell whether its port is
/// backed by a local `Channel` or a TCP link. That keeps the dependency
/// arrow pointing one way (net → runtime) and keeps pipelines that never
/// leave the process free of any networking code.
///
/// Failure semantics (paper-faithful degradation): when the link is down a
/// put reports `dropped` — the item is accounted as a drop, and the
/// producer keeps pacing against the *last received* summary-STP rather
/// than stalling or free-running. A get blocks through reconnects until
/// data, close, or stop.
#pragma once

#include <memory>
#include <stop_token>
#include <string>

#include "core/compress.hpp"
#include "runtime/types.hpp"
#include "util/time.hpp"

namespace stampede {

class Item;

class RemoteEndpoint {
 public:
  struct PutResult {
    /// Remote channel's summary-STP from the put ack; while disconnected,
    /// the last value received before the link died (kUnknownStp if none
    /// ever arrived).
    Nanos summary{aru::kUnknownStp};
    /// Queued for at-most-once delivery: the item is in the link's
    /// in-flight window, which resends it across reconnects until the
    /// remote channel acks it. Not a per-item store verdict.
    bool stored = false;
    bool dropped = false;  ///< link down: item dropped locally, keep producing
    bool closed = false;   ///< remote channel closed: not queued, producer should stop
  };

  struct GetResult {
    /// The fetched item (materialized locally); nullptr when the remote
    /// channel closed with nothing left or the stop token fired.
    std::shared_ptr<const Item> item;
    /// Time this get spent waiting: for the link (outage, reconnect) plus
    /// the server-reported park until the remote channel had an item.
    /// The rest of the call's wall time is the transfer, which is service
    /// time — it counts in the consumer's current-STP, as the simulated
    /// link model charges it. A get that returns no item books its whole
    /// wall time here.
    Nanos blocked{0};
  };

  virtual ~RemoteEndpoint() = default;

  /// Sends `item` to the remote channel; never blocks on a dead link
  /// (returns dropped instead).
  virtual PutResult put(std::shared_ptr<Item> item, std::stop_token st) = 0;

  /// Fetches the latest unseen item, blocking (through reconnects) until
  /// one exists, the channel closes, or `st` fires. `consumer_summary` is
  /// piggy-backed to the remote channel's backwardSTP vector; `guarantee`
  /// carries the DGC extra guarantee (kNoTimestamp = none).
  virtual GetResult get_latest(Nanos consumer_summary, Timestamp guarantee,
                               std::stop_token st) = 0;

  /// Graph node id assigned when the endpoint was registered.
  virtual NodeId id() const = 0;
  virtual const std::string& name() const = 0;
};

}  // namespace stampede
