/// \file context.hpp
/// \brief Shared run-wide services handed to channels, items and tasks.
#pragma once

#include <atomic>

#include "cluster/topology.hpp"
#include "core/policy.hpp"
#include "gc/frontier.hpp"
#include "runtime/memory.hpp"
#include "runtime/types.hpp"
#include "stats/recorder.hpp"
#include "util/clock.hpp"

namespace stampede::telemetry {
class Registry;
}  // namespace stampede::telemetry

namespace stampede {

/// Aggregates the services every runtime component needs. Owned by the
/// Runtime; outlives all channels, tasks and items of that runtime.
class PayloadPool;

struct RunContext {
  Clock* clock = nullptr;
  MemoryTracker* tracker = nullptr;
  stats::Recorder* recorder = nullptr;
  /// Live metrics registry (telemetry/registry.hpp). Always set by the
  /// Runtime; components register their series at construction time and
  /// keep the returned pointers for hot-path increments. Null only in
  /// hand-rolled test fixtures that bypass Runtime.
  telemetry::Registry* metrics = nullptr;
  /// Payload buffer pool items allocate from (runtime/pool.hpp). Must be
  /// set before any Item is constructed: Item never allocates around it,
  /// so PayloadPool::acquire stays the one place that decides which
  /// payloads are recycled, and which live in the shared arena.
  PayloadPool* pool = nullptr;
  const cluster::Topology* topology = nullptr;
  PressureModel pressure;
  SchedulerNoise sched_noise;
  CostMode cost_mode = CostMode::kSleep;
  gc::Kind gc = gc::Kind::kDeadTimestamp;
  aru::Config aru;

  /// Set once when the runtime begins shutting down.
  std::atomic<bool> stopping{false};

  std::int64_t now_ns() const { return clock->now().count(); }
};

}  // namespace stampede
