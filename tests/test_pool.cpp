/// \file test_pool.cpp
/// \brief PayloadPool unit + stress tests: size-class geometry and the
///        64 KiB recycling boundary, recycle on last-reference drop
///        (including through a Channel), poison semantics, the parked-byte
///        cap, and a multithreaded acquire/release race harness (the
///        interesting schedules run under TSan via the preset matrix).
#include "runtime/pool.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <string>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "runtime/channel.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"
#include "vision/frame.hpp"

namespace stampede {
namespace {

using test::Env;
using test::never_stop;

constexpr std::size_t kMin = PayloadPool::kMinPooledBytes;
constexpr std::size_t kMax = PayloadPool::kMaxPooledBytes;

// ---------------------------------------------------------------------------
// Size-class geometry
// ---------------------------------------------------------------------------

TEST(PoolClassSize, KnownBoundaries) {
  struct Row {
    std::size_t bytes;
    std::size_t slab;
    bool recycled;
  };
  const Row rows[] = {
      {0, 0, false},
      {1, 1, false},
      {4096, 4096, false},
      // Below 64 KiB: exact size, never recycled (a 5 KiB request costs
      // 5 KiB, not a 64 KiB slab).
      {kMin - 1, kMin - 1, false},
      {kMin, kMin, true},
      {kMin + 1, std::size_t{128} << 10, true},
      // The paper's 738 kB frame lands in the 768 KiB class (~4% slack).
      {vision::kFrameBytes, std::size_t{768} << 10, true},
      {kMax, kMax, true},
      // Beyond the recycled range: exact size again.
      {kMax + 1, kMax + 1, false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(PayloadPool::class_size(row.bytes), row.slab) << row.bytes;
    if (row.bytes == 0) continue;
    // No poison, so the multi-MiB rows never touch their pages.
    PayloadPool pool(/*poison=*/false);
    std::byte* first = nullptr;
    {
      PayloadBuffer buf = pool.acquire(row.bytes);
      EXPECT_EQ(buf.pooled(), row.recycled) << row.bytes;
      EXPECT_EQ(buf.size(), row.bytes);
      EXPECT_EQ(buf.capacity(), row.slab) << row.bytes;
      first = buf.span().data();
    }
    EXPECT_EQ(pool.parked_bytes(), row.recycled ? row.slab : 0u) << row.bytes;
    if (row.recycled) {
      // Recycling hands the same memory back.
      PayloadBuffer again = pool.acquire(row.bytes);
      EXPECT_EQ(again.span().data(), first) << row.bytes;
      EXPECT_EQ(pool.parked_bytes(), 0u);
    }
  }
}

TEST(PoolClassSize, RandomizedInvariants) {
  Xoshiro256 rng(0x9001);
  for (int i = 0; i < 10'000; ++i) {
    // Bias toward boundaries: mix uniform small, uniform large, and
    // near-power-of-two probes.
    std::size_t bytes = 0;
    switch (rng.below(3)) {
      case 0: bytes = rng.below(2 * kMin); break;
      case 1: bytes = rng.below(kMax + 2); break;
      default: {
        const std::size_t p = std::size_t{1} << rng.below(24);
        bytes = p + rng.below(3) - 1;  // p-1, p, p+1
        break;
      }
    }
    const std::size_t cls = PayloadPool::class_size(bytes);
    ASSERT_GE(cls, bytes) << bytes;
    if (bytes < kMin || bytes > kMax) {
      EXPECT_EQ(cls, bytes);
    } else {
      // 64 KiB multiple, tight.
      EXPECT_EQ(cls % kMin, 0u) << bytes;
      EXPECT_LT(cls - kMin, bytes) << bytes;
    }
    // Round-tripping a class size is the identity — a recycled slab
    // re-enters exactly the free list it came from.
    EXPECT_EQ(PayloadPool::class_size(cls), cls) << bytes;
  }
}

// ---------------------------------------------------------------------------
// Acquire / recycle
// ---------------------------------------------------------------------------

TEST(Pool, AcquireRecycleHitsTheFreeList) {
  PayloadPool pool;
  constexpr std::size_t kBytes = 700'000;
  const std::size_t cls = PayloadPool::class_size(kBytes);
  std::byte* slab = nullptr;
  {
    PayloadBuffer buf = pool.acquire(kBytes);
    EXPECT_EQ(buf.size(), kBytes);
    EXPECT_EQ(buf.capacity(), cls);
    EXPECT_TRUE(buf.pooled());
    EXPECT_EQ(buf.span().size(), kBytes);
    EXPECT_EQ(pool.parked_bytes(), 0u);
    slab = buf.span().data();
  }
  EXPECT_EQ(pool.parked_bytes(), cls);
  // A different request size in the same class reuses the parked slab.
  PayloadBuffer buf = pool.acquire(kBytes + 1000);
  EXPECT_EQ(buf.capacity(), cls);
  EXPECT_EQ(buf.span().data(), slab);
  EXPECT_EQ(pool.parked_bytes(), 0u);
}

TEST(Pool, RecycledSlabIsTheSameMemory) {
  PayloadPool pool(/*poison=*/false);
  std::byte* first = nullptr;
  {
    PayloadBuffer buf = pool.acquire(100'000);
    first = buf.span().data();
    std::memset(first, 0x5C, 100'000);
  }
  PayloadBuffer again = pool.acquire(90'000);
  EXPECT_EQ(again.span().data(), first);
  // Without poison, the recycled bytes are whatever the last user left —
  // the no-zero-fill contract.
  EXPECT_EQ(std::to_integer<int>(again.span()[0]), 0x5C);
}

TEST(Pool, PoisonFillsAcquiredBytesEveryTime) {
  PayloadPool pool(/*poison=*/true);
  // Fresh slab, then recycled; then a small exact-size buffer.
  for (const std::size_t bytes : {kMin, kMin, std::size_t{4096}}) {
    PayloadBuffer buf = pool.acquire(bytes);
    const auto s = buf.span();
    EXPECT_TRUE(std::all_of(s.begin(), s.end(),
                            [](std::byte b) { return b == kPoolPoisonByte; }))
        << bytes;
    std::memset(s.data(), 0x11, s.size());  // dirty it for the next round
  }
}

TEST(Pool, ZeroByteAcquireIsEmpty) {
  PayloadPool pool;
  PayloadBuffer buf = pool.acquire(0);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.span().empty());
}

TEST(Pool, OversizedRequestsBypassThePool) {
  PayloadPool pool;
  {
    PayloadBuffer buf = pool.acquire(kMax + 1);
    EXPECT_FALSE(buf.pooled());
    EXPECT_EQ(buf.size(), kMax + 1);
    EXPECT_EQ(buf.capacity(), kMax + 1);
  }
  EXPECT_EQ(pool.parked_bytes(), 0u);  // freed, not recycled
}

TEST(Pool, RetainedBytesRespectTheCap) {
  // 17 × 8 MiB is one slab more than the 128 MiB cap holds: releasing the
  // seventeenth must free it. No poison, so the slabs are never touched.
  static_assert(PayloadPool::kMaxParkedBytes == 16 * kMax);
  PayloadPool pool(/*poison=*/false);
  {
    std::vector<PayloadBuffer> held;
    for (int i = 0; i < 17; ++i) held.push_back(pool.acquire(kMax));
  }
  EXPECT_EQ(pool.parked_bytes(), PayloadPool::kMaxParkedBytes);
}

TEST(Pool, MoveTransfersOwnership) {
  PayloadPool pool;
  PayloadBuffer a = pool.acquire(kMin);
  std::byte* p = a.span().data();
  PayloadBuffer b = std::move(a);
  EXPECT_EQ(b.span().data(), p);
  EXPECT_EQ(a.span().data(), nullptr);  // NOLINT(bugprone-use-after-move)
  b = pool.acquire(2 * kMin);           // move-assign releases the old slab
  EXPECT_EQ(pool.parked_bytes(), kMin);
}

/// Records the leases handed back to it.
struct RecordingLender final : PayloadLender {
  std::vector<std::uint64_t> returned;
  void give_back(std::uint64_t lease) noexcept override { returned.push_back(lease); }
};

TEST(Pool, BorrowedBufferIsReadOnlyAndGivesItsLeaseBackOnce) {
  const std::array<std::byte, 16> bytes{std::byte{7}};
  auto lender = std::make_shared<RecordingLender>();
  {
    PayloadBuffer a = PayloadBuffer::borrow(bytes.data(), bytes.size(), lender, 42);
    EXPECT_TRUE(a.borrowed());
    EXPECT_FALSE(a.pooled());
    EXPECT_TRUE(a.span().empty()) << "a borrowed view must never be writable";
    EXPECT_EQ(std::as_const(a).span().data(), bytes.data());
    EXPECT_EQ(std::as_const(a).span().size(), bytes.size());
    PayloadBuffer b = std::move(a);  // the lease moves with the view
    EXPECT_TRUE(lender->returned.empty());
    b = PayloadBuffer::borrow(bytes.data(), 8, lender, 43);  // ends lease 42
    EXPECT_EQ(lender->returned, std::vector<std::uint64_t>{42});
  }
  EXPECT_EQ(lender->returned, (std::vector<std::uint64_t>{42, 43}));
}

TEST(Pool, ParkedBytesStayOutOfTrackerTotals) {
  Env env;
  { auto item = env.make_item(0, 700'000); }
  EXPECT_GT(env.pool.parked_bytes(), 0u);
  // The pressure model measures live item footprint; parked slabs are
  // reuse inventory, not load.
  EXPECT_EQ(env.tracker.total_bytes(), 0);
}

// ---------------------------------------------------------------------------
// Shared arena
// ---------------------------------------------------------------------------

TEST(PoolArena, RecycledSlabsComeFromTheSealedArenaOnceEnabled) {
  PayloadPool pool(/*poison=*/false);
  EXPECT_LT(pool.arena().fd, 0) << "no arena until a sender asks for one";
  PayloadBuffer before = pool.acquire(kMin);
  EXPECT_EQ(pool.arena_offset(before.span().data()), PayloadPool::kNotInArena);

  pool.enable_arena();
  pool.enable_arena();  // idempotent
  const ArenaInfo info = pool.arena();
  ASSERT_GE(info.fd, 0) << "memfd arenas unavailable";
  EXPECT_EQ(info.size, PayloadPool::kArenaBytes);
  EXPECT_NE(info.token, 0u);

  // What a peer checks: the name carries the token, and the size cannot
  // change under a mapping.
  char self[64];
  std::snprintf(self, sizeof(self), "/proc/self/fd/%d", info.fd);
  char target[128] = {};
  ASSERT_GT(::readlink(self, target, sizeof(target) - 1), 0);
  char expect[64];
  std::snprintf(expect, sizeof(expect), "/memfd:aru-arena-%016llx",
                static_cast<unsigned long long>(info.token));
  EXPECT_EQ(std::string(target).rfind(expect, 0), 0u) << target;
  const int seals = ::fcntl(info.fd, F_GET_SEALS);
  EXPECT_EQ(seals & (F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL),
            F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL);

  PayloadBuffer frame = pool.acquire(vision::kFrameBytes);
  PayloadBuffer slab = pool.acquire(kMin);
  const std::uint64_t frame_off = pool.arena_offset(frame.span().data());
  const std::uint64_t slab_off = pool.arena_offset(slab.span().data());
  ASSERT_NE(frame_off, PayloadPool::kNotInArena);
  ASSERT_NE(slab_off, PayloadPool::kNotInArena);
  EXPECT_EQ(frame_off % kMin, 0u) << "slabs are page- and class-aligned";
  EXPECT_EQ(slab_off % kMin, 0u);
  EXPECT_NE(frame_off, slab_off);
  // Small payloads stay exact-size heap buffers.
  PayloadBuffer small = pool.acquire(kMin - 1);
  EXPECT_EQ(pool.arena_offset(small.span().data()), PayloadPool::kNotInArena);

  // Recycling keeps working inside the arena.
  std::byte* const p = frame.span().data();
  frame = PayloadBuffer{};
  PayloadBuffer again = pool.acquire(vision::kFrameBytes);
  EXPECT_EQ(again.span().data(), p);
}

TEST(PoolArena, SlabsPastTheParkedCapArePunchedOutAndReused) {
  // As RetainedBytesRespectTheCap, but in the arena: the seventeenth
  // 8 MiB slab is not freed but punched out, and its address range is the
  // next one its class gets. A punched range reads as zeros.
  PayloadPool pool(/*poison=*/false);
  pool.enable_arena();
  ASSERT_GE(pool.arena().fd, 0) << "memfd arenas unavailable";
  std::byte* punched = nullptr;
  {
    std::vector<PayloadBuffer> held;
    for (int i = 0; i < 17; ++i) {
      held.push_back(pool.acquire(kMax));
      held.back().span()[0] = std::byte{0x5A};
    }
    punched = held.back().span().data();
  }  // released in order: the last one overflows the cap
  EXPECT_EQ(pool.parked_bytes(), PayloadPool::kMaxParkedBytes);

  std::vector<PayloadBuffer> again;
  for (int i = 0; i < 16; ++i) {
    again.push_back(pool.acquire(kMax));
    EXPECT_EQ(again.back().span()[0], std::byte{0x5A}) << "parked slabs keep their pages";
  }
  PayloadBuffer reused = pool.acquire(kMax);
  EXPECT_EQ(reused.span().data(), punched);
  EXPECT_EQ(reused.span()[0], std::byte{0}) << "the punched slab's pages were returned";
}

TEST(PoolArena, FullArenaFallsBackToHeapSlabs) {
  PayloadPool pool(/*poison=*/false);
  pool.enable_arena();
  ASSERT_GE(pool.arena().fd, 0) << "memfd arenas unavailable";
  std::vector<PayloadBuffer> held;
  for (std::size_t i = 0; i < PayloadPool::kArenaBytes / kMax; ++i) {
    held.push_back(pool.acquire(kMax));
    EXPECT_NE(pool.arena_offset(held.back().span().data()), PayloadPool::kNotInArena);
  }
  PayloadBuffer overflow = pool.acquire(kMax);
  EXPECT_TRUE(overflow.pooled()) << "a heap slab still recycles";
  EXPECT_EQ(pool.arena_offset(overflow.span().data()), PayloadPool::kNotInArena);
  PayloadBuffer smaller = pool.acquire(kMin);
  EXPECT_EQ(pool.arena_offset(smaller.span().data()), PayloadPool::kNotInArena);
}

// ---------------------------------------------------------------------------
// Recycle on last-reference drop, through a Channel
// ---------------------------------------------------------------------------

TEST(Pool, ChannelGcDropsRecycleIntoThePool) {
  Env env;  // Env wires its pool into ctx — items allocate through it
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);

  std::set<const std::byte*> slabs;
  for (Timestamp ts = 0; ts < 8; ++ts) {
    auto item = env.make_item(ts, 700'000);
    slabs.insert(item->data().data());
    ch->put(std::move(item), never_stop());
    const auto res = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
    ASSERT_TRUE(res.item);
    // res.item drops here; DGC reclaims the channel slot on the next put.
  }
  // Steady state: the slab DGC frees on one put is the one the next item
  // takes, so eight frames share two slabs instead of allocating eight —
  // and the freed one waits on the free list, not back in the heap.
  EXPECT_LE(slabs.size(), 2u);
  EXPECT_EQ(env.pool.parked_bytes(), PayloadPool::class_size(700'000));
}

TEST(Pool, SameTimestampOverwriteRecyclesUnderTheChannelLock) {
  // Overwriting ts=0 drops the previous item's last reference inside
  // Channel::put (under the kBuffer lock) — the kPool rank exists exactly
  // so this destructor-triggered release is hierarchy-legal. ARU_LOCK_DEBUG
  // presets verify the order at runtime.
  Env env;
  auto ch = env.make_channel();
  ch->register_consumer(200, 0);
  const std::size_t before = env.pool.parked_bytes();
  ch->put(env.make_item(0, 700'000), never_stop());
  ch->put(env.make_item(0, 700'000), never_stop());  // overwrite, frees #1
  EXPECT_GE(env.pool.parked_bytes() - before, PayloadPool::class_size(700'000));
}

// ---------------------------------------------------------------------------
// Race stress
// ---------------------------------------------------------------------------

TEST(PoolStress, ConcurrentAcquireReleaseStaysConsistent) {
  PayloadPool pool;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2'000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      Xoshiro256 rng(0xACE0 + static_cast<std::uint64_t>(t));
      std::vector<PayloadBuffer> held;
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Mix of sizes that share classes across threads, plus holds so
        // releases interleave with foreign acquires of the same class.
        const std::size_t bytes = 1 + rng.below(1 << 20);
        PayloadBuffer buf = pool.acquire(bytes);
        ASSERT_EQ(buf.size(), bytes);
        ASSERT_EQ(buf.pooled(), bytes >= kMin);
        // Touch first/last byte: ASan would flag a mis-sized slab.
        buf.span().front() = std::byte{0x7E};
        buf.span().back() = std::byte{0x7F};
        if (rng.below(4) == 0) {
          held.push_back(std::move(buf));
          if (held.size() > 8) held.erase(held.begin());
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  // Everything came back as whole 64 KiB-step slabs, within the cap.
  const std::size_t parked = pool.parked_bytes();
  EXPECT_GT(parked, 0u);
  EXPECT_EQ(parked % kMin, 0u);
  EXPECT_LE(parked, PayloadPool::kMaxParkedBytes);
}

TEST(PoolStress, ChannelChurnAcrossThreads) {
  // Producer puts pooled items through a channel while a consumer gets and
  // immediately drops them: recycling happens on both threads, racing the
  // producer's acquires. Run under TSan in the preset matrix.
  Env env;
  auto ch = env.make_channel();
  const int c = ch->register_consumer(200, 0);
  constexpr Timestamp kItems = 300;

  std::thread producer([&] {
    for (Timestamp ts = 0; ts < kItems; ++ts) {
      ch->put(env.make_item(ts, 300'000), never_stop());
    }
    ch->close();
  });
  std::int64_t got = 0;
  while (true) {
    const auto res = ch->get_latest(c, aru::kUnknownStp, kNoTimestamp, never_stop());
    if (!res.item) break;  // closed and drained
    ASSERT_EQ(res.item->bytes(), 300'000u);
    ++got;
  }
  producer.join();
  EXPECT_GT(got, 0);
  ch.reset();  // drop the channel's last items: every slab is back
  EXPECT_GE(env.pool.parked_bytes(), PayloadPool::class_size(300'000));
  EXPECT_LE(env.pool.parked_bytes(), PayloadPool::kMaxParkedBytes);
}

}  // namespace
}  // namespace stampede
