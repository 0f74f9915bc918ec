/// \file peer_arena.hpp
/// \brief Read-only mapping of a same-host peer's payload arena (wire v5),
///        and the borrowed views a receiver reads lent payloads through
///        (gets since v6, puts since v8).
///
/// A runtime that sends payloads keeps its recycled slabs in a sealed
/// memfd (runtime/pool.hpp) and advertises it in the handshake as an
/// `ArenaRef`. The receiving side maps it here. A payload that names an
/// arena offset then costs the receiver nothing: it becomes a borrowed
/// `PayloadBuffer` that views the sender's slab in place while the sender
/// pins it under a lease. The view holds the mapping, so the mapping
/// outlives the link (and a reconnect maps anew); when the view dies its
/// lease goes to the mapping's `LeaseReturn`. On a consumer link that is
/// the link's `ReleaseList`, which sends the id back in a `kRelease` frame
/// at once; on a server's put link it is the producer session's set of
/// held puts, which every put ack restates.
///
/// A server lends on what it borrowed (wire v8): an item that views a
/// producer's slab goes to a consumer as an offset into the producer's
/// arena, named by its token, and the consumer maps that arena from the
/// `ArenaRef` the server offers. `lent_from` and `ref` give the server
/// what it needs to name the slab.
///
/// Trust model: the wire stays unauthenticated; the mapping is what is
/// checked. `map` opens `/proc/<pid>/fd/<fd>` read-only and maps it only
/// if the file it opened is a memfd named `aru-arena-<token>`, owned by
/// this process's euid, sealed against shrinking and growing (so the peer
/// cannot truncate it under our reads and fault us with SIGBUS), and at
/// least the advertised size. The same checks hold for a third process's
/// arena that a server offers: a server can name only memfd arenas of our
/// own euid, whose owners could ptrace us anyway. The mapping is
/// read-only: a peer can hand us wrong bytes, as it could over TCP, but
/// never make us write its memory. A memfd mapping outlives its owner, so
/// a peer that dies leaves every view of its bytes readable and unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
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

/// Where a dying view's lease goes: the mapping it was lent from hands the
/// id here, on whatever thread drops the view, possibly under a channel
/// lock, so an implementation takes nothing ranked below a leaf.
class LeaseReturn {
 public:
  virtual ~LeaseReturn() = default;
  virtual void returned(std::uint64_t lease) noexcept = 0;
};

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
class ReleaseList final : public LeaseReturn {
 public:
  ReleaseList();

  /// A view holding `lease` died, or a reply's lease never became a view:
  /// queues it and hands the queue to the attached link to send.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("capacity reserved for two slots' worth of leases at construction; grows only if views pile up while the link is down")
  void returned(std::uint64_t lease) noexcept override EXCLUDES(mu_);

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
  /// from the mapping return their lease ids to `returns` when they die.
  ARU_ALLOCATES ARU_ANALYZE_ESCAPE("runs once per arena a link learns of (a handshake or a server's offer), never per item")
  static std::shared_ptr<PeerArena> map(const ArenaRef& ref,
                                        std::shared_ptr<LeaseReturn> returns = nullptr,
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

  /// The mapping a borrowed buffer views, or null when it views none.
  ARU_HOT_PATH static const PeerArena* lent_from(const PayloadBuffer& buf);

  /// The arena as its owner advertised it: what a server offers a consumer
  /// that should read the borrowed bytes in place too.
  const ArenaRef& ref() const { return ref_; }

  /// Offset of `p`, a byte of a view of this mapping, in the arena.
  std::uint64_t offset_of(const std::byte* p) const {
    return static_cast<std::uint64_t>(p - base_);
  }

  std::uint64_t size() const { return ref_.size; }

  void give_back(std::uint64_t lease) noexcept override;

 private:
  PeerArena(const std::byte* base, const ArenaRef& ref, std::shared_ptr<LeaseReturn> returns)
      : base_(base), ref_(ref), returns_(std::move(returns)) {}

  bool contains(std::uint64_t offset, std::size_t bytes) const {
    return offset <= ref_.size && bytes <= ref_.size - offset;
  }

  const std::byte* base_;
  const ArenaRef ref_;
  const std::shared_ptr<LeaseReturn> returns_;  ///< null: views return nothing
};

}  // namespace stampede::net
