#include "runtime/pool.hpp"

#include <cstring>

namespace stampede {
namespace {

/// Fresh slab, explicitly NOT value-initialized: make_unique would zero
/// the pages, which producers overwrite anyway.
ARU_ALLOCATES std::byte* raw_alloc(std::size_t bytes) { return new std::byte[bytes]; }

}  // namespace

void PayloadBuffer::reset() {
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
    for (std::byte* slab : list) delete[] slab;
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
    if (!list.empty()) {
      slab = list.back();
      list.pop_back();
      parked_bytes_ -= cap;
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
  {
    const util::MutexLock lock(mu_);
    if (parked_bytes_ + capacity <= kMaxParkedBytes) {
      free_[capacity / kStep - 1].push_back(data);
      parked_bytes_ += capacity;
      return;
    }
  }
  delete[] data;
}

}  // namespace stampede
