#include "runtime/memory.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

namespace stampede {
namespace {

TEST(MemoryTracker, TracksPerNodeAndTotal) {
  MemoryTracker m(3);
  m.on_alloc(0, 100);
  m.on_alloc(2, 50);
  EXPECT_EQ(m.node_bytes(0), 100);
  EXPECT_EQ(m.node_bytes(1), 0);
  EXPECT_EQ(m.node_bytes(2), 50);
  EXPECT_EQ(m.total_bytes(), 150);
}

TEST(MemoryTracker, FreeReducesCounts) {
  MemoryTracker m(1);
  m.on_alloc(0, 100);
  m.on_free(0, 40);
  EXPECT_EQ(m.total_bytes(), 60);
  EXPECT_EQ(m.node_bytes(0), 60);
}

TEST(MemoryTracker, PeakIsHighWaterMark) {
  MemoryTracker m(1);
  m.on_alloc(0, 100);
  m.on_free(0, 100);
  m.on_alloc(0, 30);
  EXPECT_EQ(m.peak_bytes(), 100);
}

TEST(MemoryTracker, InvalidConstructionThrows) {
  EXPECT_THROW(MemoryTracker(0), std::invalid_argument);
}

TEST(MemoryTracker, BadNodeThrows) {
  MemoryTracker m(2);
  EXPECT_THROW(m.on_alloc(2, 1), std::out_of_range);
  EXPECT_THROW(m.on_free(-1, 1), std::out_of_range);
  EXPECT_THROW(m.node_bytes(5), std::out_of_range);
}

TEST(MemoryTracker, PeakCasSurvivesContention) {
  // N threads hammer alloc/free: whatever the interleaving, the high-water
  // mark is at least one thread's live allocation and at most the sum of
  // all of them, and the peak CAS loop must never publish a stale lower
  // value or lose an update under contention.
  MemoryTracker m(1);
  constexpr int kThreads = 8;
  constexpr std::int64_t kBytes = 1 << 16;
  constexpr int kRounds = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&m] {
      for (int i = 0; i < kRounds; ++i) {
        m.on_alloc(0, kBytes);
        m.on_free(0, kBytes);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.total_bytes(), 0);
  EXPECT_GE(m.peak_bytes(), kBytes);                 // someone's alloc was live
  EXPECT_LE(m.peak_bytes(), kThreads * kBytes);      // never above the sum
}

TEST(MemoryTracker, ConcurrentAccountingIsExact) {
  MemoryTracker m(2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&m, t] {
      for (int i = 0; i < 2000; ++i) {
        m.on_alloc(t % 2, 8);
        m.on_free(t % 2, 4);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(m.total_bytes(), 4 * 2000 * 4);
  EXPECT_EQ(m.node_bytes(0) + m.node_bytes(1), m.total_bytes());
}

}  // namespace
}  // namespace stampede
