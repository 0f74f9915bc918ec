/// \file peer_arena.hpp
/// \brief Read-only mapping of a same-host peer's payload arena (wire v5).
///
/// A runtime that sends payloads keeps its recycled slabs in a sealed
/// memfd (runtime/pool.hpp) and advertises it in the handshake as an
/// `ArenaRef`. The receiving side maps it here, and a frame naming an
/// arena offset then costs one `memcpy` out of the mapping instead of a
/// kernel send copy, a kernel receive copy and a TCP stream.
///
/// Trust model: the wire stays unauthenticated; the mapping is what is
/// checked. `map` opens `/proc/<pid>/fd/<fd>` read-only and maps it only
/// if the file it opened is a memfd named `aru-arena-<token>`, owned by
/// this process's euid, sealed against shrinking and growing (so the peer
/// cannot truncate it under our reads and fault us with SIGBUS), and at
/// least the advertised size. The mapping is read-only: a peer can hand us
/// wrong bytes, as it could over TCP, but never make us write its memory.
/// A memfd mapping outlives its owner, so a peer that dies mid-copy
/// leaves the bytes readable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "net/wire.hpp"
#include "util/static_annotations.hpp"

namespace stampede {
class PayloadPool;
}  // namespace stampede

namespace stampede::net {

/// This process's arena as a peer needs it (token 0: the pool has none).
ArenaRef local_arena(const PayloadPool& pool);

class PeerArena {
 public:
  /// Maps the advertised arena when every check in the file comment
  /// passes; null (with the failed check in `*why`) otherwise.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("attach path only: runs once per handshake, never per item")
  static std::unique_ptr<PeerArena> map(const ArenaRef& ref, std::string* why = nullptr);

  ~PeerArena();
  PeerArena(const PeerArena&) = delete;
  PeerArena& operator=(const PeerArena&) = delete;

  /// Copies `dest.size()` bytes starting at `offset` of the arena into
  /// `dest`. False, with nothing copied, when the range leaves the arena.
  ARU_HOT_PATH bool copy_out(std::uint64_t offset, std::span<std::byte> dest) const;

  std::uint64_t size() const { return size_; }

 private:
  PeerArena(const std::byte* base, std::uint64_t size) : base_(base), size_(size) {}

  const std::byte* base_;
  std::uint64_t size_;
};

}  // namespace stampede::net
