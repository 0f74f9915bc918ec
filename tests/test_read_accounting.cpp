/// \file test_read_accounting.cpp
/// \brief Every channel read accounts a consume the same way: one kConsume
///        event, one `aru_channel_gets_total` increment, the topology's
///        transfer time and the occupancy scan cost — and, one level up,
///        TaskContext realizes that transfer once (kTransfer), holds the
///        copy as the port's replica (kReplicate) and frees the previous
///        one (kReplicaFree).
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "runtime/runtime.hpp"
#include "telemetry/registry.hpp"
#include "test_support.hpp"

namespace stampede {
namespace {

using test::Env;
using test::never_stop;

enum class Read { kLatest, kNext, kAt, kNearest, kWindow };

const char* name_of(Read r) {
  switch (r) {
    case Read::kLatest: return "Latest";
    case Read::kNext: return "Next";
    case Read::kAt: return "At";
    case Read::kNearest: return "Nearest";
    case Read::kWindow: return "Window";
  }
  return "?";
}

/// What one read delivered: the consumed item and the costs it reported.
struct Delivery {
  std::shared_ptr<const Item> item;
  Nanos transfer{0};
  Nanos overhead{0};
};

/// One read of kind `r` by consumer `c`; `newest` is the newest stored
/// timestamp (the random-access reads ask for it).
Delivery read(Channel& ch, int c, Read r, Timestamp newest) {
  switch (r) {
    case Read::kLatest: {
      auto res = ch.get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
      return {res.item, res.transfer, res.overhead};
    }
    case Read::kNext: {
      auto res = ch.get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop());
      return {res.item, res.transfer, res.overhead};
    }
    case Read::kAt: {
      auto res = ch.get_at(c, newest, aru::kUnknownStp);
      return {res.item, res.transfer, res.overhead};
    }
    case Read::kNearest: {
      auto res = ch.get_nearest(c, newest + 1, 1, aru::kUnknownStp);
      return {res.item, res.transfer, res.overhead};
    }
    case Read::kWindow: {
      auto res = ch.get_window(c, 2, aru::kUnknownStp, never_stop());
      return {res.items.empty() ? nullptr : res.items.back(), res.transfer, res.overhead};
    }
  }
  return {};
}

/// The same read through a task's input port 0.
std::shared_ptr<const Item> read(TaskContext& task, Read r, Timestamp newest) {
  switch (r) {
    case Read::kLatest: return task.get(0);
    case Read::kNext: return task.get_next(0);
    case Read::kAt: return task.get_at(0, newest);
    case Read::kNearest: return task.get_nearest(0, newest + 1, 1);
    case Read::kWindow: {
      auto items = task.get_window(0, 2);
      return items.empty() ? nullptr : items.back();
    }
  }
  return nullptr;
}

/// Events recorded on behalf of `node`, in the order they were recorded.
std::vector<stats::Event> events_of(const stats::Recorder& recorder, NodeId node) {
  std::vector<stats::Event> out;
  for (const stats::Event& e :
       recorder.merge(0, std::numeric_limits<std::int64_t>::max()).events) {
    if (e.node == node) out.push_back(e);
  }
  return out;
}

constexpr int kRounds = 4;
constexpr Nanos kScan = micros(3);

std::size_t bytes_for(Timestamp ts) { return 1000 + static_cast<std::size_t>(ts) * 100; }

class ReadAccounting : public ::testing::TestWithParam<Read> {};

TEST_P(ReadAccounting, ChannelAccountsEachConsumeOnce) {
  Env env(2);  // two cluster nodes, gigabit link between them
  telemetry::Registry metrics;
  env.ctx.metrics = &metrics;
  env.ctx.pressure.per_item_scan = kScan;
  auto ch = env.make_channel({.name = "ch", .cluster_node = 0});
  constexpr NodeId kReader = 200;
  const int c = ch->register_consumer(kReader, /*cluster_node=*/1);
  const telemetry::Counter& gets = metrics.counter(
      "aru_channel_gets_total", "Items delivered to consumers (all get variants)",
      {{"channel", "ch"}});

  Timestamp ts = 0;
  std::size_t seen = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 3; ++i, ++ts) ch->put(env.make_item(ts, bytes_for(ts)), never_stop());
    const Timestamp newest = ts - 1;
    const std::size_t stored = ch->size();
    const std::uint64_t gets_before = gets.value();

    const Delivery d = read(*ch, c, GetParam(), newest);
    ASSERT_TRUE(d.item) << "round " << round;

    const std::vector<stats::Event> events = events_of(env.recorder, kReader);
    ASSERT_GT(events.size(), seen);
    int consumes = 0;
    for (std::size_t i = seen; i < events.size(); ++i) {
      if (events[i].type != stats::EventType::kConsume) continue;
      ++consumes;
      EXPECT_EQ(events[i].item, d.item->id());
    }
    EXPECT_EQ(consumes, 1) << "round " << round;
    // Skips come before the consume within one read.
    EXPECT_EQ(events.back().type, stats::EventType::kConsume);
    seen = events.size();

    EXPECT_EQ(gets.value(), gets_before + 1);
    EXPECT_EQ(d.transfer, env.topology.transfer_time(0, 1, d.item->bytes()));
    EXPECT_GT(d.transfer.count(), 0);
    EXPECT_EQ(d.overhead, env.ctx.pressure.scan_cost(stored));
  }
}

TEST_P(ReadAccounting, TaskRealizesTransferAndHoldsOneReplica) {
  ManualClock clock;
  const cluster::Topology topology =
      cluster::Topology::uniform(2, cluster::Topology::gigabit_link());
  RuntimeConfig config;
  config.clock = &clock;
  config.topology = topology;
  config.pressure.per_item_scan = kScan;
  Runtime rt(std::move(config));
  Channel& ch = rt.add_channel({.name = "ch", .cluster_node = 0});
  auto idle = [](TaskContext&) { return TaskStatus::kDone; };
  TaskContext& src = rt.add_task({.name = "src", .cluster_node = 0, .body = idle});
  TaskContext& reader = rt.add_task({.name = "reader", .cluster_node = 1, .body = idle});
  rt.connect(src, ch);
  rt.connect(ch, reader);

  // Driven from this thread, without start(): each call runs exactly as a
  // task body would run it.
  Timestamp ts = 0;
  std::size_t seen = 0;
  std::shared_ptr<const Item> previous;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 3; ++i, ++ts) {
      ASSERT_TRUE(src.put(0, src.make_item(ts, bytes_for(ts), {})));
    }
    const std::size_t stored = ch.size();

    const auto item = read(reader, GetParam(), ts - 1);
    ASSERT_TRUE(item) << "round " << round;
    const auto bytes = static_cast<std::int64_t>(item->bytes());

    // One call: transfer, the previous replica freed, the new one held,
    // the scan overhead — in that order, nothing else.
    const std::vector<stats::Event> events = events_of(rt.recorder(), reader.id());
    std::vector<stats::Event> call(events.begin() + static_cast<std::ptrdiff_t>(seen),
                                   events.end());
    seen = events.size();
    std::vector<stats::EventType> expected = {stats::EventType::kTransfer};
    if (previous) expected.push_back(stats::EventType::kReplicaFree);
    expected.push_back(stats::EventType::kReplicate);
    expected.push_back(stats::EventType::kOverhead);
    std::vector<stats::EventType> types;
    for (const stats::Event& e : call) {
      if (e.type != stats::EventType::kConsume && e.type != stats::EventType::kSkip) {
        types.push_back(e.type);
      }
    }
    ASSERT_EQ(types, expected) << "round " << round;

    for (const stats::Event& e : call) {
      switch (e.type) {
        case stats::EventType::kTransfer:
          EXPECT_EQ(e.a, topology.transfer_time(0, 1, item->bytes()).count());
          EXPECT_EQ(e.b, bytes);
          EXPECT_EQ(e.item, item->id());
          break;
        case stats::EventType::kReplicaFree:
          EXPECT_EQ(e.item, previous->id());
          EXPECT_EQ(e.a, static_cast<std::int64_t>(previous->bytes()));
          break;
        case stats::EventType::kReplicate:
          EXPECT_EQ(e.item, item->id());
          EXPECT_EQ(e.a, bytes);
          EXPECT_EQ(e.b, 1);  // the reader's cluster node
          break;
        case stats::EventType::kOverhead:
          EXPECT_EQ(e.a, rt.context().pressure.scan_cost(stored).count());
          break;
        default:
          break;
      }
    }
    // Only the newest replica stays resident on the reader's node.
    EXPECT_EQ(rt.memory().node_bytes(1), bytes);
    previous = item;
  }
}

INSTANTIATE_TEST_SUITE_P(FiveReads, ReadAccounting,
                         ::testing::Values(Read::kLatest, Read::kNext, Read::kAt,
                                           Read::kNearest, Read::kWindow),
                         [](const ::testing::TestParamInfo<Read>& info) {
                           return std::string(name_of(info.param));
                         });

}  // namespace
}  // namespace stampede
