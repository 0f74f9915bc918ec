#include "stats/recorder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <thread>
#include <vector>

namespace stampede::stats {
namespace {

Event ev(EventType type, std::int64_t t, ItemId item = 0) {
  return Event{.type = type, .item = item, .t = t};
}

TEST(Recorder, MergeSortsAcrossShards) {
  Recorder r;
  r.record(ev(EventType::kAlloc, 30));
  std::thread other([&r] {
    r.record(ev(EventType::kAlloc, 10));
    r.record(ev(EventType::kPut, 20));
  });
  other.join();
  r.record(ev(EventType::kFree, 50));

  const Trace t = r.merge(0, 100);
  ASSERT_EQ(t.events.size(), 4u);
  EXPECT_EQ(t.events[0].t, 10);
  EXPECT_EQ(t.events[1].t, 20);
  EXPECT_EQ(t.events[2].t, 30);
  EXPECT_EQ(t.events[3].t, 50);
  EXPECT_EQ(t.t_begin, 0);
  EXPECT_EQ(t.t_end, 100);
}

TEST(Recorder, StableOrderForEqualTimes) {
  Recorder r;
  r.record(Event{.type = EventType::kAlloc, .item = 1, .t = 5});
  r.record(Event{.type = EventType::kFree, .item = 1, .t = 5});
  const Trace t = r.merge(0, 10);
  EXPECT_EQ(t.events[0].type, EventType::kAlloc);
  EXPECT_EQ(t.events[1].type, EventType::kFree);
}

TEST(Recorder, StableOrderSurvivesChunkBoundaries) {
  // More events than one chunk holds, all at one instant: the merge must
  // hand them back in recording order.
  Recorder r;
  constexpr ItemId kEvents = 10'000;
  for (ItemId i = 1; i <= kEvents; ++i) r.record(ev(EventType::kPut, 7, i));
  const Trace t = r.merge(0, 10);
  ASSERT_EQ(t.events.size(), kEvents);
  for (ItemId i = 1; i <= kEvents; ++i) ASSERT_EQ(t.events[i - 1].item, i);
}

TEST(Recorder, ItemRecordsAreSortedById) {
  Recorder r;
  r.record_item(ItemRecord{.id = 7});
  r.record_item(ItemRecord{.id = 3});
  const Trace t = r.merge(0, 1);
  ASSERT_EQ(t.items.size(), 2u);
  EXPECT_EQ(t.items[0].id, 3u);
  EXPECT_EQ(t.items[1].id, 7u);
}

TEST(Recorder, EveryThreadsEventsArriveExactlyOnce) {
  // Threads record different amounts (some across chunk boundaries), the
  // short ones exit while the long ones still record, and every event of
  // every thread must be in the merge exactly once, in its thread's order.
  Recorder r;
  constexpr int kThreads = 8;
  constexpr ItemId kStride = 1'000'000;
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&r, w] {
      const auto n = static_cast<ItemId>(50 + w * 1500);
      for (ItemId i = 0; i < n; ++i) {
        r.record(Event{.type = EventType::kPut,
                       .node = w,
                       .item = static_cast<ItemId>(w) * kStride + i,
                       .t = static_cast<std::int64_t>(i)});
      }
    });
  }
  for (auto& th : threads) th.join();

  const Trace t = r.merge(0, 1);
  std::vector<ItemId> next(kThreads, 0);
  for (const Event& e : t.events) {
    const auto w = static_cast<std::size_t>(e.node);
    ASSERT_LT(w, next.size());
    // Ids of one thread arrive in recording order, so a duplicate or a
    // gap shows up as an out-of-sequence id.
    ASSERT_EQ(e.item, static_cast<ItemId>(w) * kStride + next[w]);
    ++next[w];
  }
  for (int w = 0; w < kThreads; ++w) {
    EXPECT_EQ(next[static_cast<std::size_t>(w)], static_cast<ItemId>(50 + w * 1500));
  }
}

TEST(Recorder, ThreadAlternatingRecordersKeepsTheirEventsApart) {
  // More recorders than a thread's shard cache holds: evicted shards are
  // found again, never duplicated, and never mixed up.
  constexpr std::size_t kRecorders = 6;
  constexpr ItemId kRounds = 500;
  std::vector<std::unique_ptr<Recorder>> rs;
  for (std::size_t i = 0; i < kRecorders; ++i) rs.push_back(std::make_unique<Recorder>());
  for (ItemId round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < kRecorders; ++i) {
      rs[i]->record(ev(EventType::kPut, static_cast<std::int64_t>(round), i * 10'000 + round));
    }
  }
  for (std::size_t i = 0; i < kRecorders; ++i) {
    const Trace t = rs[i]->merge(0, 1);
    ASSERT_EQ(t.events.size(), kRounds) << "recorder " << i;
    for (ItemId round = 0; round < kRounds; ++round) {
      EXPECT_EQ(t.events[round].item, i * 10'000 + round);
    }
  }
}

TEST(Recorder, RebuiltRecorderGetsAFreshShard) {
  // Same thread, same address: the second recorder must not inherit the
  // first one's (freed) shard through the thread's cache.
  std::optional<Recorder> r;
  r.emplace();
  r->record(ev(EventType::kAlloc, 1, 11));
  r->record_item(ItemRecord{.id = 11});
  const Recorder* first = &*r;
  r.reset();
  r.emplace();
  ASSERT_EQ(&*r, first);
  r->record(ev(EventType::kAlloc, 2, 22));
  const Trace t = r->merge(0, 10);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].item, 22u);
  EXPECT_TRUE(t.items.empty());
}

TEST(Recorder, ItemIdsAreUniqueAcrossThreads) {
  Recorder r;
  std::vector<ItemId> ids(4000);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&r, &ids, t] {
      for (int i = 0; i < 1000; ++i) ids[static_cast<std::size_t>(t * 1000 + i)] = r.next_item_id();
    });
  }
  for (auto& th : threads) th.join();
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  EXPECT_GT(ids.front(), 0u);  // 0 is reserved for "no item"
}

TEST(Recorder, EmitCounterIsThreadSafe) {
  Recorder r;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&r] {
      for (int i = 0; i < 500; ++i) r.count_emit();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(r.emits(), 2000);
}

TEST(Recorder, NodeNamesLandInTrace) {
  Recorder r;
  r.set_node_name(2, "tracker");
  r.set_node_name(0, "digitizer");
  const Trace t = r.merge(0, 1);
  ASSERT_EQ(t.node_names.size(), 3u);
  EXPECT_EQ(t.node_names[0], "digitizer");
  EXPECT_EQ(t.node_names[2], "tracker");
}

TEST(Recorder, AnyThreadEventsAreMerged) {
  Recorder r;
  std::thread([&r] { r.record(ev(EventType::kFree, 42, 9)); }).join();
  const Trace t = r.merge(0, 100);
  ASSERT_EQ(t.events.size(), 1u);
  EXPECT_EQ(t.events[0].item, 9u);
}

TEST(EventType, NamesAreStable) {
  EXPECT_STREQ(to_string(EventType::kAlloc), "alloc");
  EXPECT_STREQ(to_string(EventType::kDisplay), "display");
  EXPECT_STREQ(to_string(EventType::kOverhead), "overhead");
}

}  // namespace
}  // namespace stampede::stats
