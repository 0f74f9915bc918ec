/// \file test_mutex.cpp
/// \brief util::Mutex / MutexLock / UniqueLock behavior, and — when built
///        with ARU_LOCK_DEBUG — the runtime lock-order validator.
#include <gtest/gtest.h>

#include <condition_variable>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace stampede::util {
namespace {

TEST(Mutex, MutexLockSerializesAccess) {
  Mutex mu(LockRank::kLeaf, "test.counter");
  int counter = 0;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        const MutexLock lock(mu);
        ++counter;
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(40000, counter);
}

TEST(Mutex, TryLockReflectsContention) {
  Mutex mu(LockRank::kLeaf, "test.trylock");
  ASSERT_TRUE(mu.try_lock());
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
  ASSERT_TRUE(mu.try_lock());
  mu.unlock();
}

TEST(Mutex, UniqueLockDrivesConditionVariable) {
  Mutex mu(LockRank::kLeaf, "test.cv");
  std::condition_variable_any cv;
  bool ready = false;

  std::thread waiter([&] {
    UniqueLock lock(mu);
    cv.wait(lock, [&] {
      mu.assert_held();  // wait re-acquires before evaluating
      return ready;
    });
    EXPECT_TRUE(ready);
  });
  {
    const MutexLock lock(mu);
    ready = true;
  }
  cv.notify_one();
  waiter.join();
}

TEST(Mutex, AscendingRankNestingIsAllowed) {
  Mutex low(LockRank::kLifecycle, "test.low");
  Mutex mid(LockRank::kBuffer, "test.mid");
  Mutex high(LockRank::kLeaf, "test.high");
  const MutexLock l0(low);
  const MutexLock l1(mid);
  const MutexLock l2(high);
  low.assert_held();
  mid.assert_held();
  high.assert_held();
}

#ifdef STAMPEDE_LOCK_DEBUG

using MutexDeathTest = ::testing::Test;

TEST(MutexDeathTest, DescendingRankAborts) {
  EXPECT_DEATH(
      {
        Mutex high(LockRank::kPool, "test.pool");
        Mutex low(LockRank::kBuffer, "test.buffer");
        const MutexLock l0(high);
        const MutexLock l1(low);  // rank 30 under rank 35: violation
      },
      "lock-order violation");
}

TEST(MutexDeathTest, SameRankNestingAborts) {
  EXPECT_DEATH(
      {
        Mutex a(LockRank::kBuffer, "test.channel_a");
        Mutex b(LockRank::kBuffer, "test.channel_b");
        const MutexLock l0(a);
        const MutexLock l1(b);  // one channel inside another: violation
      },
      "lock-order violation");
}

TEST(MutexDeathTest, RecursiveAcquisitionAborts) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "test.recursive");
        mu.lock();
        mu.lock();
      },
      "recursive acquisition");
}

TEST(MutexDeathTest, AssertHeldAbortsWhenNotHeld) {
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kLeaf, "test.unheld");
        mu.assert_held();
      },
      "assert_held failed");
}

TEST(MutexDeathTest, AssertHeldIsPerThread) {
  // Holding in one thread must not satisfy assert_held in another.
  Mutex mu(LockRank::kLeaf, "test.other_thread");
  mu.lock();
  std::thread other([&] { EXPECT_DEATH(mu.assert_held(), "assert_held failed"); });
  other.join();
  mu.unlock();
}

#endif  // STAMPEDE_LOCK_DEBUG

}  // namespace
}  // namespace stampede::util
