/// \file test_support.hpp
/// \brief Shared fixtures/helpers for the test suite.
#pragma once

#include <memory>
#include <stop_token>

#include "cluster/topology.hpp"
#include "runtime/channel.hpp"
#include "runtime/context.hpp"
#include "runtime/item.hpp"
#include "runtime/pool.hpp"
#include "runtime/queue.hpp"
#include "stats/recorder.hpp"
#include "util/clock.hpp"

namespace stampede::test {

/// Self-contained RunContext for direct Channel/Queue/Item tests (no
/// Runtime). Defaults: manual clock, one cluster node, DGC, ARU-min.
struct Env {
  explicit Env(int cluster_nodes = 1)
      : tracker(cluster_nodes),
        // Poison unconditionally (not just in !NDEBUG builds): a test that
        // reads payload bytes it never wrote should fail in every preset.
        pool(/*poison=*/true),
        topology(cluster_nodes == 1
                     ? cluster::Topology::single_node()
                     : cluster::Topology::uniform(cluster_nodes,
                                                  cluster::Topology::gigabit_link())) {
    ctx.clock = &clock;
    ctx.tracker = &tracker;
    ctx.recorder = &recorder;
    ctx.topology = &topology;
    ctx.pool = &pool;
    ctx.gc = gc::Kind::kDeadTimestamp;
    ctx.aru = aru::Config{.mode = aru::Mode::kMin};
  }

  /// Builds a channel node recording into this env's recorder.
  std::unique_ptr<Channel> make_channel(ChannelConfig config = {.name = "ch"}) {
    return std::make_unique<Channel>(ctx, next_node++, std::move(config), ctx.aru.mode,
                                     make_filter(""));
  }

  std::unique_ptr<Queue> make_queue(QueueConfig config = {.name = "q"}) {
    return std::make_unique<Queue>(ctx, next_node++, std::move(config), ctx.aru.mode,
                                   make_filter(""));
  }

  /// Builds an item owned by producer node 1000 on cluster node 0.
  std::shared_ptr<Item> make_item(Timestamp ts, std::size_t bytes = 64,
                                  std::vector<ItemId> lineage = {}) {
    return std::make_shared<Item>(ctx, ts, bytes, /*producer=*/1000, /*cluster_node=*/0,
                                  std::move(lineage), Nanos{0});
  }

  ManualClock clock;
  MemoryTracker tracker;
  PayloadPool pool;  ///< declared before the channels/items tests create
  stats::Recorder recorder;
  cluster::Topology topology;
  RunContext ctx;
  NodeId next_node = 0;
};

/// A stop token that never fires (for non-blocking channel tests).
inline std::stop_token never_stop() {
  static std::stop_source source;
  return source.get_token();
}

/// True when built under ThreadSanitizer. Its ~10x instrumentation
/// slowdown distorts the compute/sleep ratio of timing-calibrated
/// integration tests; use this to relax *magnitude* assertions while
/// still running the threaded pipeline (the race coverage is the point
/// of the TSan build, not the throughput numbers).
consteval bool tsan_enabled() {
#if defined(__SANITIZE_THREAD__)
  return true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  return true;
#else
  return false;
#endif
#else
  return false;
#endif
}

}  // namespace stampede::test
