#include "runtime/channel.hpp"

#include <gtest/gtest.h>

#include <thread>

#include "test_support.hpp"

namespace stampede {
namespace {

using test::Env;
using test::never_stop;

TEST(Channel, GetLatestReturnsNewestAndSkipsStale) {
  Env env;
  auto ch = env.make_channel();
  ch->register_producer(100);
  const int c = ch->register_consumer(200, 0);

  for (Timestamp ts = 0; ts < 4; ++ts) {
    ch->put(env.make_item(ts), never_stop());
  }
  const auto res = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  ASSERT_TRUE(res.item);
  EXPECT_EQ(res.item->ts(), 3);
  EXPECT_EQ(res.skipped, 3);
}

TEST(Channel, SecondGetSeesOnlyNewerItems) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  EXPECT_EQ(ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts(), 0);
  ch->put(env.make_item(1), never_stop());
  ch->put(env.make_item(2), never_stop());
  const auto res = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  EXPECT_EQ(res.item->ts(), 2);
  EXPECT_EQ(res.skipped, 1);
}

TEST(Channel, DgcFreesItemsAllConsumersPassed) {
  Env env;
  auto ch = env.make_channel();
  const int c0 = ch->register_consumer(200, 0);
  const int c1 = ch->register_consumer(201, 0);
  for (Timestamp ts = 0; ts < 3; ++ts) ch->put(env.make_item(ts), never_stop());
  EXPECT_EQ(ch->size(), 3u);

  ch->get_latest(c0, aru::kUnknownStp, kNoTimestamp, never_stop());
  EXPECT_EQ(ch->size(), 3u);  // consumer 1 has not passed yet
  ch->get_latest(c1, aru::kUnknownStp, kNoTimestamp, never_stop());
  // Both consumers passed ts 0..2; only the latest (consumed) entry may
  // remain below the frontier... all items with ts < 3 are dead.
  EXPECT_EQ(ch->size(), 0u);
}

TEST(Channel, TransparentGcNeedsAllConsumersToTouch) {
  Env env;
  env.ctx.gc = gc::Kind::kTransparent;
  auto ch = env.make_channel();
  const int c0 = ch->register_consumer(200, 0);
  ch->register_consumer(201, 0);  // never reads
  for (Timestamp ts = 0; ts < 3; ++ts) ch->put(env.make_item(ts), never_stop());
  ch->get_latest(c0, aru::kUnknownStp, kNoTimestamp, never_stop());
  EXPECT_EQ(ch->size(), 3u);  // second consumer still reachable
}

TEST(Channel, GcNoneNeverFrees) {
  Env env;
  env.ctx.gc = gc::Kind::kNone;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 5; ++ts) ch->put(env.make_item(ts), never_stop());
  ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  EXPECT_EQ(ch->size(), 5u);
}

TEST(Channel, DeadOnArrivalWhenBelowFrontier) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(10), never_stop());
  ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());  // guarantee -> 11
  const auto res = ch->put(env.make_item(5), never_stop());
  EXPECT_FALSE(res.stored);
  EXPECT_EQ(ch->size(), 0u);
}

TEST(Channel, ExtraGuaranteeRaisesFrontier) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 6; ++ts) ch->put(env.make_item(ts), never_stop());
  // Downstream knowledge says nothing below 100 is wanted.
  ch->get_latest(c, aru::kUnknownStp, /*extra_guarantee=*/100, never_stop());
  EXPECT_EQ(ch->frontier(), 100);
  EXPECT_EQ(ch->size(), 0u);
}

TEST(Channel, FeedbackSummaryReachesProducerOnPut) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->get_latest(c, /*consumer_summary=*/millis(25), kNoTimestamp, never_stop());
  const auto res = ch->put(env.make_item(1), never_stop());
  EXPECT_EQ(res.channel_summary, millis(25));
  EXPECT_EQ(ch->summary(), millis(25));
}

TEST(Channel, MinCompressPicksFastestConsumer) {
  Env env;  // aru mode = min
  auto ch = env.make_channel();
  const int c0 = ch->register_consumer(200, 0);
  const int c1 = ch->register_consumer(201, 0);
  ch->put(env.make_item(0), never_stop());
  ch->get_latest(c0, millis(40), kNoTimestamp, never_stop());
  ch->get_latest(c1, millis(15), kNoTimestamp, never_stop());
  EXPECT_EQ(ch->summary(), millis(15));
}

TEST(Channel, MaxCompressPicksSlowestConsumer) {
  Env env;
  env.ctx.aru.mode = aru::Mode::kMax;
  auto ch = std::make_unique<Channel>(env.ctx, env.next_node++, ChannelConfig{.name = "ch"},
                                      aru::Mode::kMax, make_filter(""));
  const int c0 = ch->register_consumer(200, 0);
  const int c1 = ch->register_consumer(201, 0);
  ch->put(env.make_item(0), never_stop());
  ch->get_latest(c0, millis(40), kNoTimestamp, never_stop());
  ch->get_latest(c1, millis(15), kNoTimestamp, never_stop());
  EXPECT_EQ(ch->summary(), millis(40));
}

TEST(Channel, AruOffIgnoresFeedback) {
  Env env;
  env.ctx.aru.mode = aru::Mode::kOff;
  auto ch = std::make_unique<Channel>(env.ctx, env.next_node++, ChannelConfig{.name = "ch"},
                                      aru::Mode::kOff, make_filter(""));
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->get_latest(c, millis(25), kNoTimestamp, never_stop());
  EXPECT_EQ(ch->summary(), aru::kUnknownStp);
}

TEST(Channel, BlockingGetWakesOnPut) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);

  std::shared_ptr<const Item> got;
  std::thread consumer([&] {
    got = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ch->put(env.make_item(7), never_stop());
  consumer.join();
  ASSERT_TRUE(got);
  EXPECT_EQ(got->ts(), 7);
}

TEST(Channel, BlockedTimeIsReported) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  Nanos blocked{0};
  std::thread consumer([&] {
    blocked = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).blocked;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ch->put(env.make_item(0), never_stop());
  consumer.join();
  EXPECT_GE(blocked.count(), millis(20).count());
}

TEST(Channel, CloseWakesBlockedConsumerWithNull) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  std::shared_ptr<const Item> got = env.make_item(99);
  std::thread consumer([&] {
    got = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  ch->close();
  consumer.join();
  EXPECT_FALSE(got);
}

TEST(Channel, ClosedChannelStillDrains) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->close();
  EXPECT_TRUE(ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item);
  EXPECT_FALSE(ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item);
}

TEST(Channel, PutAfterCloseIsRejected) {
  Env env;
  auto ch = env.make_channel();
  ch->register_consumer(200, 0);
  ch->close();
  EXPECT_FALSE(ch->put(env.make_item(0), never_stop()).stored);
  EXPECT_EQ(ch->size(), 0u);
}

TEST(Channel, BoundedChannelExertsBackpressure) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel({.name = "bounded", .capacity = 2});
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->put(env.make_item(1), never_stop());

  Nanos blocked{0};
  std::thread producer([&] {
    blocked = ch->put(env.make_item(2), never_stop()).blocked;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(25));
  // Consuming frees space (entries below frontier are collected).
  ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  producer.join();
  EXPECT_GE(blocked.count(), millis(10).count());
}

TEST(Channel, TryPutNeverBlocksOnFullChannel) {
  Env env;
  auto ch = env.make_channel({.name = "bounded", .capacity = 2});
  const int c = ch->register_consumer(200, 0);
  ASSERT_TRUE(ch->try_put(env.make_item(0)).has_value());
  ASSERT_TRUE(ch->try_put(env.make_item(1)).has_value());

  // Full: try_put reports "would block" without storing (or blocking —
  // this test runs on a manual clock, so an actual block would hang).
  auto item2 = env.make_item(2);
  EXPECT_FALSE(ch->try_put(item2).has_value());
  EXPECT_EQ(ch->size(), 2u);

  // Consuming frees space (entries below the frontier are collected);
  // retrying with the same item then stores.
  ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  const auto res = ch->try_put(item2);
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->stored);

  // A closed channel is not "would block": like put(), try_put returns a
  // result with stored=false.
  ch->close();
  const auto closed = ch->try_put(env.make_item(3));
  ASSERT_TRUE(closed.has_value());
  EXPECT_FALSE(closed->stored);
}

TEST(Channel, TransferDelayForRemoteConsumer) {
  Env env(3);  // 3-node cluster with gigabit links
  auto ch = env.make_channel({.name = "remote", .cluster_node = 0});
  const int local = ch->register_consumer(200, 0);
  const int remote = ch->register_consumer(201, 2);
  ch->put(env.make_item(0, 1'000'000), never_stop());
  EXPECT_EQ(ch->get_latest(local, aru::kUnknownStp, kNoTimestamp, never_stop()).transfer,
            Nanos{0});
  const Nanos t =
      ch->get_latest(remote, aru::kUnknownStp, kNoTimestamp, never_stop()).transfer;
  EXPECT_GT(t.count(), millis(7).count());  // ~8ms for 1MB over gigabit
}

TEST(Channel, ScanOverheadGrowsWithOccupancy) {
  Env env;
  env.ctx.pressure.per_item_scan = micros(100);
  auto ch = env.make_channel();
  ch->register_consumer(200, 0);
  const Nanos o1 = ch->put(env.make_item(0), never_stop()).overhead;
  const Nanos o2 = ch->put(env.make_item(1), never_stop()).overhead;
  EXPECT_EQ(o1, micros(100));
  EXPECT_EQ(o2, micros(200));
}

TEST(Channel, DropEventRecordedForUnconsumedItems) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->put(env.make_item(1), never_stop());
  ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());  // skips ts 0

  const auto trace = env.recorder.merge(0, env.clock.now().count() + 1);
  int drops = 0, skips = 0;
  for (const auto& e : trace.events) {
    drops += e.type == stats::EventType::kDrop ? 1 : 0;
    skips += e.type == stats::EventType::kSkip ? 1 : 0;
  }
  EXPECT_EQ(drops, 1);
  EXPECT_EQ(skips, 1);
}

TEST(Channel, BadConsumerIndexThrows) {
  Env env;
  auto ch = env.make_channel();
  ch->register_consumer(200, 0);
  EXPECT_THROW(ch->get_latest(5, aru::kUnknownStp, kNoTimestamp, never_stop()),
               std::out_of_range);
}

TEST(Channel, NullItemThrows) {
  Env env;
  auto ch = env.make_channel();
  EXPECT_THROW(ch->put(nullptr, never_stop()), std::invalid_argument);
}

// Property: with N consumers all reading everything, DGC reclaims all but
// the most recent entry.
class ConsumerCount : public ::testing::TestWithParam<int> {};

TEST_P(ConsumerCount, SteadyStateOccupancyIsBounded) {
  Env env;
  auto ch = env.make_channel();
  std::vector<int> consumers;
  for (int i = 0; i < GetParam(); ++i) consumers.push_back(ch->register_consumer(200 + i, 0));

  for (Timestamp ts = 0; ts < 20; ++ts) {
    ch->put(env.make_item(ts), never_stop());
    for (const int c : consumers) {
      ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
    }
    EXPECT_LE(ch->size(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(OneToEight, ConsumerCount, ::testing::Values(1, 2, 4, 8));

}  // namespace
}  // namespace stampede
