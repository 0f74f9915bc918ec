#include "runtime/pool.hpp"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <random>

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

namespace stampede {
namespace {

/// Fresh slab, explicitly NOT value-initialized: make_unique would zero
/// the pages, which producers overwrite anyway.
ARU_ALLOCATES std::byte* raw_alloc(std::size_t bytes) { return new std::byte[bytes]; }

}  // namespace

PayloadBuffer PayloadBuffer::borrow(const std::byte* data, std::size_t size,
                                    std::shared_ptr<PayloadLender> lender,
                                    std::uint64_t lease) {
  PayloadBuffer view;
  // Never written through: the mutable span() of a borrowed buffer is empty.
  view.data_ = const_cast<std::byte*>(data);
  view.size_ = size;
  view.capacity_ = size;
  view.lender_ = std::move(lender);
  view.lease_ = lease;
  return view;
}

void PayloadBuffer::reset() {
  if (lender_ != nullptr) {
    std::exchange(lender_, nullptr)->give_back(lease_);
    data_ = nullptr;
    size_ = 0;
    capacity_ = 0;
    lease_ = 0;
    return;
  }
  if (data_ == nullptr) return;
  if (pool_ != nullptr) {
    pool_->release(data_, capacity_);
  } else {
    delete[] data_;
  }
  data_ = nullptr;
  size_ = 0;
  capacity_ = 0;
  pool_ = nullptr;
}

PayloadBuffer::~PayloadBuffer() { reset(); }

PayloadPool::~PayloadPool() {
  const util::MutexLock lock(mu_);
  for (auto& list : free_) {
    for (std::byte* slab : list) {
      if (arena_offset(slab) == kNotInArena) delete[] slab;
    }
  }
  if (std::byte* base = arena_base_.load(std::memory_order_relaxed)) {
    ::munmap(base, kArenaBytes);
    ::close(arena_fd_);
  }
}

std::size_t PayloadPool::class_size(std::size_t bytes) {
  if (bytes < kMinPooledBytes || bytes > kMaxPooledBytes) return bytes;
  return (bytes + kStep - 1) / kStep * kStep;
}

PayloadBuffer PayloadPool::acquire(std::size_t bytes) {
  if (bytes == 0) return {};

  // This range test is the one place that decides which payloads recycle.
  const bool recycle = bytes >= kMinPooledBytes && bytes <= kMaxPooledBytes;
  const std::size_t cap = class_size(bytes);
  std::byte* slab = nullptr;
  if (recycle) {
    const util::MutexLock lock(mu_);
    auto& list = free_[cap / kStep - 1];
    auto& holes = holes_[cap / kStep - 1];
    std::byte* const base = arena_base_.load(std::memory_order_relaxed);
    if (!list.empty()) {
      slab = list.back();
      list.pop_back();
      parked_bytes_ -= cap;
    } else if (!holes.empty()) {
      slab = holes.back();
      holes.pop_back();
    } else if (base != nullptr && kArenaBytes - arena_used_ >= cap) {
      slab = base + arena_used_;
      arena_used_ += cap;
    }
  }
  if (slab == nullptr) slab = raw_alloc(cap);
  if (poison_) std::memset(slab, std::to_integer<int>(kPoolPoisonByte), bytes);
  return {slab, bytes, cap, recycle ? this : nullptr};
}

std::size_t PayloadPool::parked_bytes() const {
  const util::MutexLock lock(mu_);
  return parked_bytes_;
}

void PayloadPool::release(std::byte* data, std::size_t capacity) {
  const std::uint64_t offset = arena_offset(data);
  {
    const util::MutexLock lock(mu_);
    if (parked_bytes_ + capacity <= kMaxParkedBytes) {
      free_[capacity / kStep - 1].push_back(data);
      parked_bytes_ += capacity;
      return;
    }
    if (offset != kNotInArena) {
      // Over the cap: hand the pages back but keep the address range for
      // this size class. Punching under the lock means no acquire can
      // take the range before its old bytes are gone.
      ::fallocate(arena_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  static_cast<off_t>(offset), static_cast<off_t>(capacity));
      holes_[capacity / kStep - 1].push_back(data);
      return;
    }
  }
  delete[] data;
}

void PayloadPool::enable_arena() {
  const util::MutexLock lock(mu_);
  if (arena_base_.load(std::memory_order_relaxed) != nullptr) return;

  std::random_device rd;
  const std::uint64_t token = ((static_cast<std::uint64_t>(rd()) << 32) ^ rd()) | 1;
  char name[32];
  std::snprintf(name, sizeof(name), "aru-arena-%016llx",
                static_cast<unsigned long long>(token));
  const int fd = ::memfd_create(name, MFD_CLOEXEC | MFD_ALLOW_SEALING);
  if (fd < 0) return;
  void* base = MAP_FAILED;
  if (::ftruncate(fd, static_cast<off_t>(kArenaBytes)) == 0 &&
      ::fcntl(fd, F_ADD_SEALS, F_SEAL_SHRINK | F_SEAL_GROW | F_SEAL_SEAL) == 0) {
    base = ::mmap(nullptr, kArenaBytes, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  }
  if (base == MAP_FAILED) {
    ::close(fd);
    return;
  }
  arena_fd_ = fd;
  arena_token_ = token;
  arena_base_.store(static_cast<std::byte*>(base), std::memory_order_release);
}

ArenaInfo PayloadPool::arena() const {
  const util::MutexLock lock(mu_);
  if (arena_base_.load(std::memory_order_relaxed) == nullptr) return {};
  return {.fd = arena_fd_, .token = arena_token_, .size = kArenaBytes};
}

std::uint64_t PayloadPool::arena_offset(const std::byte* p) const {
  const std::byte* const base = arena_base_.load(std::memory_order_acquire);
  if (base == nullptr) return kNotInArena;
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const auto start = reinterpret_cast<std::uintptr_t>(base);
  return addr >= start && addr - start < kArenaBytes ? addr - start : kNotInArena;
}

}  // namespace stampede
