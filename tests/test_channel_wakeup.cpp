/// \file test_channel_wakeup.cpp
/// \brief Pins the channel's blocked-wakeup semantics around the counted
///        waiter notify (notify_one when one waiter, notify_all otherwise).
///
/// The waiter-count optimization must never change observable behavior:
/// a put wakes blocked getters, a get that reclaims space on a bounded
/// channel wakes blocked putters (all of them when several are parked),
/// and close() releases everyone. The net server's waits outside the
/// channel — a parked get's readiness signal, a bounded try_put — wake on
/// the same puts and closes.
/// These tests use the real clock (cv waits need real time) but assert
/// only semantics, never timing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>

#include <poll.h>

#include "runtime/channel.hpp"
#include "test_support.hpp"
#include "util/wakeup.hpp"

namespace stampede {
namespace {

using test::Env;
using test::never_stop;

// Give a peer thread time to park in a cv wait. Timing here only makes
// the blocked path likely — correctness never depends on it.
void let_peer_block() { std::this_thread::sleep_for(std::chrono::milliseconds(25)); }

TEST(ChannelWakeup, PutWakesBlockedGetter) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  ch->register_producer(100);
  const int c = ch->register_consumer(200, 0);

  std::shared_ptr<const Item> got;
  std::thread consumer([&] {
    got = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item;
  });
  let_peer_block();
  ASSERT_TRUE(ch->put(env.make_item(7), never_stop()).stored);
  consumer.join();

  ASSERT_TRUE(got);
  EXPECT_EQ(7, got->ts());
}

TEST(ChannelWakeup, GetReclaimFreesBlockedPutter) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel({.name = "b1", .capacity = 1});
  ch->register_producer(100);
  const int c = ch->register_consumer(200, 0);

  ASSERT_TRUE(ch->put(env.make_item(0), never_stop()).stored);
  Channel::PutResult second;
  std::thread producer(
      [&] { second = ch->put(env.make_item(1), never_stop()); });
  let_peer_block();

  // get_latest consumes ts=0 and raises this consumer's guarantee to 1,
  // so the entry is reclaimed in the same call — which must notify the
  // parked producer.
  const auto first = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  ASSERT_TRUE(first.item);
  EXPECT_EQ(0, first.item->ts());

  producer.join();
  EXPECT_TRUE(second.stored);
  const auto after = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  ASSERT_TRUE(after.item);
  EXPECT_EQ(1, after.item->ts());
}

TEST(ChannelWakeup, ReclaimWakesEveryBlockedPutter) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel({.name = "b2", .capacity = 2});
  ch->register_producer(100);
  ch->register_producer(101);
  const int c = ch->register_consumer(200, 0);

  ASSERT_TRUE(ch->put(env.make_item(0), never_stop()).stored);
  ASSERT_TRUE(ch->put(env.make_item(1), never_stop()).stored);

  // Two producers park on the full channel — the notify path must use
  // notify_all here (waiters_ == 2), or one of them would hang.
  Channel::PutResult r2, r3;
  std::thread p2([&] { r2 = ch->put(env.make_item(2), never_stop()); });
  std::thread p3([&] { r3 = ch->put(env.make_item(3), never_stop()); });
  let_peer_block();

  // One get: skips ts=0, consumes ts=1, guarantee -> 2; DGC reclaims both
  // stored entries at once, freeing two slots for the two waiters.
  const auto got = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  ASSERT_TRUE(got.item);
  EXPECT_EQ(1, got.item->ts());
  EXPECT_EQ(1, got.skipped);

  p2.join();
  p3.join();
  EXPECT_TRUE(r2.stored);
  EXPECT_TRUE(r3.stored);
  EXPECT_EQ(2u, ch->size());
  EXPECT_EQ(3, ch->latest_ts());
}

TEST(ChannelWakeup, CloseWakesAllBlockedGetters) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  ch->register_producer(100);
  const int c0 = ch->register_consumer(200, 0);
  const int c1 = ch->register_consumer(201, 0);
  const int c2 = ch->register_consumer(202, 0);

  std::atomic<int> null_results{0};
  std::thread t0([&] {
    if (!ch->get_latest(c0, aru::kUnknownStp, kNoTimestamp, never_stop()).item) {
      null_results.fetch_add(1);
    }
  });
  std::thread t1([&] {
    if (!ch->get_next(c1, aru::kUnknownStp, kNoTimestamp, never_stop()).item) {
      null_results.fetch_add(1);
    }
  });
  std::thread t2([&] {
    if (!ch->get_latest(c2, aru::kUnknownStp, kNoTimestamp, never_stop()).item) {
      null_results.fetch_add(1);
    }
  });
  let_peer_block();
  ch->close();
  t0.join();
  t1.join();
  t2.join();
  EXPECT_EQ(3, null_results.load());
}

TEST(ChannelWakeup, CloseWakesBlockedPutter) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel({.name = "b3", .capacity = 1});
  ch->register_producer(100);
  ch->register_consumer(200, 0);

  ASSERT_TRUE(ch->put(env.make_item(0), never_stop()).stored);
  Channel::PutResult blocked;
  std::thread producer(
      [&] { blocked = ch->put(env.make_item(1), never_stop()); });
  let_peer_block();
  ch->close();
  producer.join();
  EXPECT_FALSE(blocked.stored) << "a put released by close() must not store";
  EXPECT_EQ(1u, ch->size()) << "the pre-close item stays for draining";
}

// -- waits outside the channel: the net server's parked get and put ---------

/// Waits up to `timeout` for `wakeup` to be signalled.
bool signalled(const util::Wakeup& wakeup, Nanos timeout) {
  pollfd pfd{wakeup.fd(), POLLIN, 0};
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(timeout);
  return ::poll(&pfd, 1, static_cast<int>(ms.count())) == 1;
}

TEST(ChannelWakeup, ReadySignalFiresOnPut) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  ch->register_producer(100);
  const int c = ch->register_consumer(200, 0);

  util::Wakeup wakeup;
  ASSERT_FALSE(ch->arm_ready(c, wakeup)) << "nothing stored: not ready, armed";
  std::atomic<bool> fired{false};
  std::thread waiter([&] { fired = signalled(wakeup, seconds(30)); });
  let_peer_block();
  ASSERT_TRUE(ch->put(env.make_item(3), never_stop()).stored);
  waiter.join();  // a put must signal it long before the 30 s timeout
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(wakeup.clear());
  // Ready means a get would not block: the item is still there to fetch.
  EXPECT_TRUE(ch->arm_ready(c, wakeup));
  const auto got = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  ASSERT_TRUE(got.item);
  EXPECT_EQ(3, got.item->ts());
}

TEST(ChannelWakeup, ReadySignalFiresOnClose) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);

  util::Wakeup wakeup;
  ASSERT_FALSE(ch->arm_ready(c, wakeup));
  std::atomic<bool> fired{false};
  std::thread waiter([&] { fired = signalled(wakeup, seconds(30)); });
  let_peer_block();
  ch->close();
  waiter.join();
  EXPECT_TRUE(fired.load());
  EXPECT_TRUE(ch->arm_ready(c, wakeup)) << "a closed channel is ready: the get returns null";
}

TEST(ChannelWakeup, ReadyOnlyWithAnUnseenItem) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel();
  ch->register_producer(100);
  const int c = ch->register_consumer(200, 0);
  util::Wakeup wakeup;
  EXPECT_FALSE(ch->arm_ready(c, wakeup));
  EXPECT_FALSE(signalled(wakeup, millis(20)));

  // A stored unseen item is ready at once (and signals the armed wakeup).
  ASSERT_TRUE(ch->put(env.make_item(0), never_stop()).stored);
  EXPECT_TRUE(wakeup.clear());
  EXPECT_TRUE(ch->arm_ready(c, wakeup));

  // An item this consumer already fetched does not make it ready again,
  // and a disarmed wakeup stays quiet.
  ASSERT_TRUE(ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item);
  EXPECT_FALSE(ch->arm_ready(c, wakeup));
  ch->disarm_ready(c, wakeup);
  ASSERT_TRUE(ch->put(env.make_item(1), never_stop()).stored);
  EXPECT_FALSE(signalled(wakeup, millis(20)));
  EXPECT_THROW(ch->arm_ready(7, wakeup), std::out_of_range);
}

TEST(ChannelWakeup, BoundedTryPutWakesWhenAGetFreesASlot) {
  Env env;
  env.ctx.clock = &RealClock::instance();
  auto ch = env.make_channel({.name = "b4", .capacity = 1});
  ch->register_producer(100);
  const int c = ch->register_consumer(200, 0);
  ASSERT_TRUE(ch->put(env.make_item(0), never_stop()).stored);

  // Still full after the wait: "would block", item untouched.
  auto item = env.make_item(1);
  EXPECT_FALSE(ch->try_put(item, millis(20)).has_value());
  EXPECT_EQ(1u, ch->size());

  std::optional<Channel::PutResult> res;
  std::thread producer([&] { res = ch->try_put(item, seconds(30)); });
  let_peer_block();
  ASSERT_TRUE(ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item);
  producer.join();  // the reclaim must wake it long before the 30 s bound
  ASSERT_TRUE(res.has_value());
  EXPECT_TRUE(res->stored);
  EXPECT_EQ(1, ch->latest_ts());
}

}  // namespace
}  // namespace stampede
