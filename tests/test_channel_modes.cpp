/// \file test_channel_modes.cpp
/// \brief Space-time-memory access modes: get_next (in-order), get_at
///        (random access) and get_window (sliding window).
#include <gtest/gtest.h>

#include "runtime/channel.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace stampede {
namespace {

using test::Env;
using test::never_stop;

TEST(GetNext, DeliversInOrderWithoutSkipping) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 4; ++ts) ch->put(env.make_item(ts), never_stop());
  for (Timestamp ts = 0; ts < 4; ++ts) {
    const auto res = ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop());
    ASSERT_TRUE(res.item);
    EXPECT_EQ(res.item->ts(), ts);
  }
}

TEST(GetNext, NoSkipEventsNoDrops) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 5; ++ts) ch->put(env.make_item(ts), never_stop());
  for (int i = 0; i < 5; ++i) {
    ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop());
  }
  const auto trace = env.recorder.merge(0, env.clock.now().count() + 1);
  for (const auto& e : trace.events) {
    EXPECT_NE(e.type, stats::EventType::kSkip);
    EXPECT_NE(e.type, stats::EventType::kDrop);
  }
}

TEST(GetNext, InterleavesWithGetLatest) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 6; ++ts) ch->put(env.make_item(ts), never_stop());
  EXPECT_EQ(ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts(), 0);
  EXPECT_EQ(ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts(), 5);
  // Cursor advanced to 5; nothing left.
  ch->put(env.make_item(6), never_stop());
  EXPECT_EQ(ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts(), 6);
}

TEST(GetNext, ClosedAndDrainedReturnsNull) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->close();
  EXPECT_FALSE(ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item);
}

TEST(GetAt, FetchesExactTimestampWithoutMovingCursor) {
  Env env;
  env.ctx.gc = gc::Kind::kNone;  // keep everything stored
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 5; ++ts) ch->put(env.make_item(ts), never_stop());

  const auto res = ch->get_at(c, 2, aru::kUnknownStp);
  ASSERT_TRUE(res.item);
  EXPECT_EQ(res.item->ts(), 2);
  // Cursor unchanged: get_next still starts at 0.
  EXPECT_EQ(ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts(), 0);
}

TEST(GetAt, MissingTimestampReturnsNull) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(1), never_stop());
  EXPECT_FALSE(ch->get_at(c, 7, aru::kUnknownStp).item);
}

TEST(GetNearest, ExactMatchWins) {
  Env env;
  env.ctx.gc = gc::Kind::kNone;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 10; ts += 2) ch->put(env.make_item(ts), never_stop());
  const auto res = ch->get_nearest(c, 4, 3, aru::kUnknownStp);
  ASSERT_TRUE(res.item);
  EXPECT_EQ(res.item->ts(), 4);
}

TEST(GetNearest, ClosestWithinToleranceOtherwiseNull) {
  Env env;
  env.ctx.gc = gc::Kind::kNone;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(10), never_stop());
  ch->put(env.make_item(20), never_stop());

  EXPECT_EQ(ch->get_nearest(c, 13, 5, aru::kUnknownStp).item->ts(), 10);
  EXPECT_EQ(ch->get_nearest(c, 17, 5, aru::kUnknownStp).item->ts(), 20);
  EXPECT_FALSE(ch->get_nearest(c, 15, 4, aru::kUnknownStp).item);  // both 5 away
  EXPECT_FALSE(ch->get_nearest(c, 40, 5, aru::kUnknownStp).item);
}

TEST(GetNearest, TiePrefersNewer) {
  Env env;
  env.ctx.gc = gc::Kind::kNone;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(10), never_stop());
  ch->put(env.make_item(20), never_stop());
  EXPECT_EQ(ch->get_nearest(c, 15, 5, aru::kUnknownStp).item->ts(), 20);
}

TEST(GetNearest, NegativeToleranceThrows) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  EXPECT_THROW(ch->get_nearest(c, 0, -1, aru::kUnknownStp), std::invalid_argument);
}

TEST(GetNearest, EmptyChannelReturnsNull) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  EXPECT_FALSE(ch->get_nearest(c, 5, 100, aru::kUnknownStp).item);
}

TEST(GetWindow, ReturnsNewestAscending) {
  Env env;
  env.ctx.gc = gc::Kind::kNone;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 6; ++ts) ch->put(env.make_item(ts), never_stop());

  const auto res = ch->get_window(c, 3, aru::kUnknownStp, never_stop());
  ASSERT_EQ(res.items.size(), 3u);
  EXPECT_EQ(res.items[0]->ts(), 3);
  EXPECT_EQ(res.items[1]->ts(), 4);
  EXPECT_EQ(res.items[2]->ts(), 5);
}

TEST(GetWindow, ShorterThanWindowReturnsWhatExists) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->put(env.make_item(1), never_stop());
  const auto res = ch->get_window(c, 5, aru::kUnknownStp, never_stop());
  EXPECT_EQ(res.items.size(), 2u);
}

TEST(GetWindow, GuaranteeHeldAtWindowTail) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 6; ++ts) ch->put(env.make_item(ts), never_stop());
  ch->get_window(c, 3, aru::kUnknownStp, never_stop());
  // Window covered ts 3..5: guarantee must not exceed 3 so the tail
  // remains stored for the next (overlapping) window.
  EXPECT_EQ(ch->frontier(), 3);
  EXPECT_GE(ch->size(), 3u);
}

TEST(GetWindow, SlidesForwardAsItemsArrive) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  for (Timestamp ts = 0; ts < 3; ++ts) ch->put(env.make_item(ts), never_stop());
  auto w1 = ch->get_window(c, 2, aru::kUnknownStp, never_stop());
  EXPECT_EQ(w1.items.back()->ts(), 2);
  ch->put(env.make_item(3), never_stop());
  auto w2 = ch->get_window(c, 2, aru::kUnknownStp, never_stop());
  ASSERT_EQ(w2.items.size(), 2u);
  EXPECT_EQ(w2.items[0]->ts(), 2);
  EXPECT_EQ(w2.items[1]->ts(), 3);
}

TEST(GetWindow, MembersLeftBehindAreReclaimedUnderBothGcKinds) {
  // A window reader that reads after every third put: the members its
  // window moves past were never consumed, and the cursor had already
  // passed them. Both collectors must reclaim them once they leave the
  // window, or a Transparent GC channel grows without bound.
  for (const gc::Kind kind : {gc::Kind::kTransparent, gc::Kind::kDeadTimestamp}) {
    SCOPED_TRACE(gc::to_string(kind));
    Env env;
    env.ctx.gc = kind;
    auto ch = env.make_channel();
    const int c = ch->register_consumer(200, 0);
    constexpr std::size_t kWindow = 4;
    for (Timestamp ts = 0; ts < 300; ++ts) {
      ch->put(env.make_item(ts), never_stop());
      if (ts % 3 == 2) ch->get_window(c, kWindow, aru::kUnknownStp, never_stop());
    }
    EXPECT_LE(ch->size(), kWindow + 1);
  }
}

TEST(GetWindow, ZeroWindowThrows) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  EXPECT_THROW(ch->get_window(c, 0, aru::kUnknownStp, never_stop()), std::invalid_argument);
}

TEST(GetWindow, FeedbackStillPiggybacks) {
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  ch->put(env.make_item(0), never_stop());
  ch->get_window(c, 2, millis(17), never_stop());
  EXPECT_EQ(ch->summary(), millis(17));
}

// Property: mixing access modes never delivers a timestamp twice via the
// cursor-driven modes (get_next / get_latest / get_window newest).
class ModeMix : public ::testing::TestWithParam<int> {};

TEST_P(ModeMix, CursorModesNeverRedeliver) {
  Env env;
  Xoshiro256 rng(static_cast<std::uint64_t>(GetParam()));
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);

  Timestamp produced = 0;
  Timestamp last_delivered = kNoTimestamp;
  for (int round = 0; round < 60; ++round) {
    const auto n = 1 + rng.below(3);
    for (std::uint64_t i = 0; i < n; ++i) ch->put(env.make_item(produced++), never_stop());

    Timestamp got = kNoTimestamp;
    switch (rng.below(3)) {
      case 0:
        got = ch->get_next(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts();
        break;
      case 1:
        got = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop()).item->ts();
        break;
      default:
        got = ch->get_window(c, 2, aru::kUnknownStp, never_stop()).items.back()->ts();
        break;
    }
    ASSERT_GT(got, last_delivered);
    last_delivered = got;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeMix, ::testing::Range(1, 9));

}  // namespace
}  // namespace stampede
