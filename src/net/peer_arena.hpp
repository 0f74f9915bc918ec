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
/// at once, whether or not the link's own get is waiting for its reply.
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

/// The write side of a consumer link, as its release list drives it (wire
/// v6/v7). The link writes every frame under a short write lock that is
/// never held while it waits for a reply.
class ReleaseSink {
 public:
  /// Sends the ids in `ids` in kRelease frames and erases what went out,
  /// unless another thread holds the write lock (it flushes the list once
  /// it lets go) or the link is down (the ids go out after the next
  /// Hello). Runs under the release list's lock, so it never waits for the
  /// write lock.
  virtual void send_now(std::vector<std::uint64_t>& ids) noexcept = 0;

 protected:
  ~ReleaseSink() = default;
};

/// Lease ids of borrowed views that have died, on their way back to the
/// lender (wire v6). A consumer link owns one for its whole life, across
/// reconnects, and shares it with every view it lends out. A dying view
/// queues its id and sends it at once, even while the link's own get waits
/// for its reply, unless another thread is writing to the link; that
/// writer flushes the list after it lets go of the write lock, so no id
/// waits for a later get. A view that outlives the link queues into a list
/// nobody sends, which is harmless. Views die on whatever thread drops the
/// last item reference, possibly under a channel lock, hence the leaf rank.
class ReleaseList {
 public:
  ReleaseList();

  /// A view holding `lease` died, or a reply's lease never became a view:
  /// queues it and hands the queue to the attached link to send.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("capacity reserved for two slots' worth of leases at construction; grows only if views pile up while the link is down")
  void returned(std::uint64_t lease) EXCLUDES(mu_);

  /// Hands whatever is queued to the attached link to send. A writer calls
  /// this once it has let go of the write lock: an id queued while it held
  /// the lock goes out now.
  void flush() EXCLUDES(mu_);

  /// Attaches (or, with null, detaches) the link that sends queued ids.
  void attach(ReleaseSink* sink) EXCLUDES(mu_);

 private:
  util::Mutex mu_{util::LockRank::kLeaf, "net.releases"};
  std::vector<std::uint64_t> ids_ GUARDED_BY(mu_);
  ReleaseSink* sink_ GUARDED_BY(mu_) = nullptr;
};

class PeerArena final : public PayloadLender {
 public:
  /// Maps the advertised arena when every check in the file comment
  /// passes; null (with the failed check in `*why`) otherwise. Views lent
  /// from the mapping return their lease ids to `releases` when they die.
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
