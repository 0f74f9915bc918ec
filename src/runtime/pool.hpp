/// \file pool.hpp
/// \brief Frame-slab recycling for item payloads, in a shared arena.
///
/// The paper's tracker allocates a 738 kB frame, a 246 kB mask and a ~1 MB
/// histogram at digitizer rate, and frees each one on whichever thread
/// drops its last reference. Those sizes sit above glibc's mmap threshold,
/// so plain heap payloads hand the freed pages back to the kernel and the
/// next write faults them in again (on the loopback tracker the e2e
/// benchmark measured ~5× the minor faults and a slower histogram stage;
/// see docs/ARCHITECTURE.md). The pool keeps those pages: a released
/// slab of at least kMinPooledBytes parks on a free list keyed by its
/// 64 KiB-rounded size, and the next acquire of that size reuses the same
/// hot, already-faulted memory.
///
/// Requests under kMinPooledBytes get an exact-size heap buffer that is
/// freed, not recycled; requests over kMaxPooledBytes likewise. Nothing is
/// zero-filled — producers overwrite the payload before publishing (the
/// stride-grid discipline in vision/ keeps readers on exactly the bytes
/// writers touched); a poisoning pool fills acquired bytes with 0xA5
/// instead, so a read-before-write shows up as noise rather than flaky
/// zeros. `PayloadBuffer` remembers the *requested* size, so
/// `Item::bytes()` and all accounting stay exact.
///
/// Shared arena. Once `enable_arena()` has run (the net layer calls it
/// when the runtime registers its first endpoint that sends payloads to a
/// peer), the recycled slabs are carved from one sealed memfd of
/// kArenaBytes, mapped once. Its size is fixed and sparse: only slabs in
/// use or parked hold pages. A same-host peer maps the arena read-only
/// (net/peer_arena.hpp) and, given a slab's `arena_offset()`, reads a put
/// or a get reply in place, as a borrowed `PayloadBuffer`, while the
/// sending side pins the item under a lease (no copy at all). A server
/// that borrowed a put lends the same slab on to its consumers, so a frame
/// crosses two hops without a byte copied (wire v8). The
/// free lists work as before; a slab released past kMaxParkedBytes has
/// its pages punched out (its address range stays with its size class
/// for reuse) instead of being freed. When the arena is full, or memfd is
/// unavailable, a recycled-size request gets a heap slab as without one.
///
/// Ownership: `acquire` hands out a move-only `PayloadBuffer` whose
/// destructor returns the slab to the pool — so recycling happens exactly
/// when the last `shared_ptr<Item>` reference drops, wherever that is
/// (consumer thread, channel GC sweep, or a same-timestamp overwrite under
/// the channel lock). The free lists therefore sit at rank `kPool`, above
/// `kBuffer` in the lock hierarchy. The pool must outlive every buffer it
/// issued; the Runtime owns it ahead of all channels/queues/tasks. A
/// borrowed buffer owes the pool nothing: its lender keeps the bytes.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede {

class PayloadPool;

/// Byte poisoned over acquired payloads by a poisoning pool.
inline constexpr std::byte kPoolPoisonByte{0xA5};

/// Poison default: on when assertions are on. The release/RelWithDebInfo
/// presets define NDEBUG, so the hot path never pays the fill there;
/// tests that want poisoning deterministically construct a poisoning pool.
#ifdef NDEBUG
inline constexpr bool kPoolPoisonDefault = false;
#else
inline constexpr bool kPoolPoisonDefault = true;
#endif

/// What a same-host peer needs to find and check a pool's shared arena:
/// the memfd's descriptor number in this process, the random token in
/// its name (`aru-arena-<token>`, 16 hex digits) and its sealed size.
/// `fd < 0`: the pool has no arena.
struct ArenaInfo {
  int fd = -1;
  std::uint64_t token = 0;
  std::uint64_t size = 0;
};

/// Where a borrowed payload goes when its last reference drops: the
/// owner of the bytes it views (net/peer_arena.hpp lends a same-host
/// peer's arena slab under a lease).
class PayloadLender {
 public:
  virtual ~PayloadLender() = default;

  /// Hands lease `lease` back. Runs once per borrowed buffer, on whatever
  /// thread drops it — possibly under a channel lock (rank kBuffer), so it
  /// must not take a lock ranked at or below that, nor wait on anything
  /// that could be waiting for that lock.
  virtual void give_back(std::uint64_t lease) noexcept = 0;
};

/// Move-only owning handle to one payload slab. Destruction recycles the
/// slab into the pool that issued it, frees it for an unrecycled buffer,
/// or gives a borrowed view back to its lender. `size()` is the requested
/// payload size; `capacity()` the slab size actually backing it.
///
/// A borrowed buffer views someone else's read-only memory: its mutable
/// `span()` is empty, so no caller can write through it.
class PayloadBuffer {
 public:
  PayloadBuffer() = default;
  ~PayloadBuffer();

  PayloadBuffer(PayloadBuffer&& other) noexcept { take(other); }

  PayloadBuffer& operator=(PayloadBuffer&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }

  PayloadBuffer(const PayloadBuffer&) = delete;
  PayloadBuffer& operator=(const PayloadBuffer&) = delete;

  /// A read-only view of `size` bytes at `data` that `lender` keeps valid
  /// until this buffer dies and hands `lease` back to it.
  static PayloadBuffer borrow(const std::byte* data, std::size_t size,
                              std::shared_ptr<PayloadLender> lender, std::uint64_t lease);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  bool pooled() const { return pool_ != nullptr; }
  bool borrowed() const { return lender_ != nullptr; }
  /// Who lent a borrowed buffer its bytes; null for an owned one.
  const PayloadLender* lender() const { return lender_.get(); }

  std::span<std::byte> span() {
    return borrowed() ? std::span<std::byte>{} : std::span<std::byte>{data_, size_};
  }
  std::span<const std::byte> span() const { return {data_, size_}; }

 private:
  friend class PayloadPool;
  PayloadBuffer(std::byte* data, std::size_t size, std::size_t capacity,
                PayloadPool* pool)
      : data_(data), size_(size), capacity_(capacity), pool_(pool) {}

  void reset();

  void take(PayloadBuffer& other) noexcept {
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    capacity_ = std::exchange(other.capacity_, 0);
    pool_ = std::exchange(other.pool_, nullptr);
    lender_ = std::move(other.lender_);
    lease_ = std::exchange(other.lease_, 0);
  }

  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  PayloadPool* pool_ = nullptr;  ///< null: plain heap buffer, destructor frees
  /// Set: a borrowed view of read-only memory, never written or freed here.
  std::shared_ptr<PayloadLender> lender_;
  std::uint64_t lease_ = 0;
};

/// Thread-safe free-listed slab pool. See file comment for the design.
class PayloadPool {
 public:
  /// Smallest request the pool recycles; smaller payloads are exact-size.
  static constexpr std::size_t kMinPooledBytes = std::size_t{64} << 10;  // 64 KiB
  /// Largest request the pool recycles; bigger payloads are exact-size.
  static constexpr std::size_t kMaxPooledBytes = std::size_t{8} << 20;  // 8 MiB
  /// Ceiling on bytes parked across all free lists; a release that would
  /// exceed it frees the slab instead. Bounds what a burst retains forever
  /// (the tracker's steady-state working set is far smaller).
  static constexpr std::size_t kMaxParkedBytes = std::size_t{128} << 20;  // 128 MiB

  /// Address space of the shared arena. Sparse: pages exist only under
  /// slabs in use or parked, so twice the parked cap leaves room for the
  /// slabs in flight.
  static constexpr std::size_t kArenaBytes = 2 * kMaxParkedBytes;
  /// `arena_offset()` of a pointer outside the arena.
  static constexpr std::uint64_t kNotInArena = ~std::uint64_t{0};

  /// \param poison fill every acquired payload with kPoolPoisonByte.
  explicit PayloadPool(bool poison = kPoolPoisonDefault) : poison_(poison) {}

  /// Frees every parked slab and unmaps the arena. All issued buffers
  /// must already be gone.
  ~PayloadPool();

  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;

  /// Returns a buffer of exactly `bytes` logical size, not zero-filled.
  /// Requests in [kMinPooledBytes, kMaxPooledBytes] are backed by a
  /// `class_size(bytes)` slab, recycled when one is parked; all others get
  /// an exact-size heap buffer that is freed on destruction.
  ARU_HOT_PATH PayloadBuffer acquire(std::size_t bytes);

  /// The slab size backing a request: the next 64 KiB multiple inside the
  /// recycled range, the request itself outside it.
  static std::size_t class_size(std::size_t bytes);

  /// Bytes parked in the free lists now (takes the pool lock).
  std::size_t parked_bytes() const;

  /// Creates the shared arena if there is none yet: a memfd named
  /// `aru-arena-<token>` sized kArenaBytes and sealed against shrinking
  /// and growing, so a peer's read-only mapping can never fault. Later
  /// recycled-size slabs come from it. Idempotent and thread-safe; on
  /// any failure the pool keeps using heap slabs.
  void enable_arena();

  /// The arena's identity for a peer; `fd < 0` when there is none.
  ArenaInfo arena() const;

  /// Offset of `p` from the arena's start, or kNotInArena. Lock-free.
  ARU_HOT_PATH std::uint64_t arena_offset(const std::byte* p) const;

 private:
  friend class PayloadBuffer;

  static constexpr std::size_t kStep = kMinPooledBytes;
  static constexpr std::size_t kClasses = kMaxPooledBytes / kStep;

  /// Recycles a slab from a destructing PayloadBuffer. Runs on whatever
  /// thread drops the last item reference — including under a channel
  /// lock, which rank kPool > kBuffer permits.
  ARU_HOT_PATH void release(std::byte* data, std::size_t capacity);

  const bool poison_;

  mutable util::Mutex mu_{util::LockRank::kPool, "runtime.pool"};
  std::array<std::vector<std::byte*>, kClasses> free_ GUARDED_BY(mu_);
  std::size_t parked_bytes_ GUARDED_BY(mu_) = 0;

  /// Arena mapping: published once by enable_arena, then read lock-free
  /// by arena_offset. Null: no arena.
  std::atomic<std::byte*> arena_base_{nullptr};
  int arena_fd_ GUARDED_BY(mu_) = -1;
  std::uint64_t arena_token_ GUARDED_BY(mu_) = 0;
  /// Bytes of the arena carved into slabs so far (a bump pointer).
  std::size_t arena_used_ GUARDED_BY(mu_) = 0;
  /// Punched-out arena slabs per class: address ranges with no pages,
  /// reused before the bump pointer moves on.
  std::array<std::vector<std::byte*>, kClasses> holes_ GUARDED_BY(mu_);
};

}  // namespace stampede
