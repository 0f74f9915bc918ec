/// \file peer_arena.hpp
/// \brief Read-only mapping of a same-host peer's payload arena (wire v5),
///        and the borrowed views a consumer reads get replies through (v6).
///
/// A runtime that sends payloads keeps its recycled slabs in a sealed
/// memfd (runtime/pool.hpp) and advertises it in the handshake as an
/// `ArenaRef`. The receiving side maps it here. A put naming an arena
/// offset then costs the server one `memcpy` out of the mapping instead of
/// a kernel send copy, a kernel receive copy and a TCP stream; a get reply
/// costs the consumer nothing: it becomes a borrowed `PayloadBuffer` that
/// views the server's slab in place while the server pins it under a
/// lease. The view holds the mapping, so the mapping outlives the link
/// (and a reconnect maps anew); when the view dies its lease id goes on
/// the link's `ReleaseList` and back to the server in a `kRelease` frame,
/// or with the link's next Get when the link is busy.
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
#include <vector>

#include "net/wire.hpp"
#include "runtime/pool.hpp"
#include "util/mutex.hpp"
#include "util/static_annotations.hpp"
#include "util/thread_annotations.hpp"

namespace stampede::net {

/// This process's arena as a peer needs it (token 0: the pool has none).
ArenaRef local_arena(const PayloadPool& pool);

/// Sends lease ids back to the lender without waiting: a consumer link
/// that is idle writes them as one `kRelease` frame (wire v6).
class ReleaseSink {
 public:
  /// Moves up to kMaxLeases ids out of the front of `ids` and sends them,
  /// unless the link is busy (inside a get: they ride the next one) or
  /// down. Runs on the thread where a view died, under the release list's
  /// lock, so it must not wait for the link.
  virtual void send_now(std::vector<std::uint64_t>& ids) noexcept = 0;

 protected:
  ~ReleaseSink() = default;
};

/// Lease ids of borrowed views that have died, on their way back to the
/// lender (wire v6). A consumer link owns one for its whole life, across
/// reconnects, and shares it with every view it lends out. A dying view
/// queues its id and lets the link send it at once when the link is idle;
/// whatever stays queued rides the link's next Get. A view that outlives
/// the link queues into a list nobody drains, which is harmless. Views die
/// on whatever thread drops the last item reference, possibly under a
/// channel lock, hence the leaf rank.
class ReleaseList {
 public:
  ReleaseList();

  /// Queues a lease for the next Get without a view behind it.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("capacity reserved for two slots' worth of leases at construction; grows only if views pile up with no get to carry them")
  void push(std::uint64_t lease) EXCLUDES(mu_);

  /// A view holding `lease` died: queues it, and hands the queue to the
  /// attached sink, which may send it at once.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("capacity reserved for two slots' worth of leases at construction; grows only if views pile up with no get to carry them")
  void returned(std::uint64_t lease) EXCLUDES(mu_);

  /// Attaches (or, with null, detaches) the link that sends queued ids.
  void attach(ReleaseSink* sink) EXCLUDES(mu_);

  /// Moves up to kMaxLeases ids, oldest first, into `out` (replacing its
  /// contents).
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("fills the caller's reused Get message; at most kMaxLeases ids, so its capacity amortizes to zero allocations")
  void take(std::vector<std::uint64_t>& out) EXCLUDES(mu_);

  /// Returns ids a Get carried that may not have reached the server; the
  /// server ignores ids it has already released.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("failed-get path only: re-queues at most kMaxLeases ids into the reserved capacity")
  void put_back(const std::vector<std::uint64_t>& ids) EXCLUDES(mu_);


 private:
  util::Mutex mu_{util::LockRank::kLeaf, "net.releases"};
  std::vector<std::uint64_t> ids_ GUARDED_BY(mu_);
  ReleaseSink* sink_ GUARDED_BY(mu_) = nullptr;
};

class PeerArena final : public PayloadLender {
 public:
  /// Maps the advertised arena when every check in the file comment
  /// passes; null (with the failed check in `*why`) otherwise. Views lent
  /// from the mapping push their lease ids onto `releases` when they die.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("attach path only: runs once per handshake, never per item")
  static std::shared_ptr<PeerArena> map(const ArenaRef& ref,
                                        std::shared_ptr<ReleaseList> releases = nullptr,
                                        std::string* why = nullptr);

  /// A borrowed, read-only view of `bytes` bytes at `offset` of `arena`,
  /// holding the mapping and lease `lease` until it dies. Not borrowed
  /// (empty) when the range leaves the arena.
  ARU_HOT_PATH static PayloadBuffer view(const std::shared_ptr<PeerArena>& arena,
                                         std::uint64_t offset, std::size_t bytes,
                                         std::uint64_t lease);

  ~PeerArena() override;
  PeerArena(const PeerArena&) = delete;
  PeerArena& operator=(const PeerArena&) = delete;

  /// Copies `dest.size()` bytes starting at `offset` of the arena into
  /// `dest` (the server's put path). False, with nothing copied, when the
  /// range leaves the arena.
  ARU_HOT_PATH bool copy_out(std::uint64_t offset, std::span<std::byte> dest) const;

  std::uint64_t size() const { return size_; }

  void give_back(std::uint64_t lease) noexcept override;

 private:
  PeerArena(const std::byte* base, std::uint64_t size, std::shared_ptr<ReleaseList> releases)
      : base_(base), size_(size), releases_(std::move(releases)) {}

  bool contains(std::uint64_t offset, std::size_t bytes) const {
    return offset <= size_ && bytes <= size_ - offset;
  }

  const std::byte* base_;
  std::uint64_t size_;
  const std::shared_ptr<ReleaseList> releases_;  ///< null: lends nothing
};

}  // namespace stampede::net
