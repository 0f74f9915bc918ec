#include "net/peer_arena.hpp"

#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

namespace stampede::net {
namespace {

/// Owns a descriptor for the duration of the checks.
struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// True when the /proc fd link at `link` names the memfd of arena `token`.
bool names_arena(const char* link, std::uint64_t token) {
  char target[128];
  const ssize_t n = ::readlink(link, target, sizeof(target) - 1);
  if (n <= 0) return false;
  target[n] = '\0';
  char expect[64];
  const int len = std::snprintf(expect, sizeof(expect), "/memfd:aru-arena-%016llx",
                                static_cast<unsigned long long>(token));
  return std::strncmp(target, expect, static_cast<std::size_t>(len)) == 0 &&
         (target[len] == '\0' || std::strcmp(target + len, " (deleted)") == 0);
}

std::shared_ptr<PeerArena> fail(std::string* why, const char* what) {
  if (why != nullptr) *why = what;
  return nullptr;
}

}  // namespace

ArenaRef local_arena(const PayloadPool& pool) {
  const ArenaInfo info = pool.arena();
  if (info.fd < 0) return {};
  return {.pid = static_cast<std::int32_t>(::getpid()),
          .fd = info.fd,
          .token = info.token,
          .size = info.size};
}

ReleaseList::ReleaseList() {
  // Room for a full slot's leases twice over (a reconnect to a respawned
  // peer can leave a full set behind), so queuing an id seldom allocates.
  const util::MutexLock lock(mu_);
  ids_.reserve(2 * kMaxLeases);
}

void ReleaseList::returned(std::uint64_t lease) noexcept {
  const util::MutexLock lock(mu_);
  ids_.push_back(lease);
  if (sink_ != nullptr) sink_->send_now(ids_);
}

void ReleaseList::flush() {
  const util::MutexLock lock(mu_);
  if (sink_ != nullptr && !ids_.empty()) sink_->send_now(ids_);
}

void ReleaseList::attach(ReleaseSink* sink) {
  const util::MutexLock lock(mu_);
  sink_ = sink;
}

std::shared_ptr<PeerArena> PeerArena::map(const ArenaRef& ref,
                                          std::shared_ptr<LeaseReturn> returns,
                                          std::string* why) {
  if (ref.token == 0 || ref.pid <= 0 || ref.fd < 0 || ref.size == 0) {
    return fail(why, "no arena advertised");
  }
  char path[64];
  std::snprintf(path, sizeof(path), "/proc/%d/fd/%d", ref.pid, ref.fd);
  // Name the target before opening it, so a descriptor that is no arena
  // (a FIFO would block the open, a device could react to it) is never
  // opened; then name what was opened, since the peer could have swapped
  // the descriptor in between. The open never blocks either way.
  if (!names_arena(path, ref.token)) return fail(why, "not the advertised arena memfd");
  const Fd file{::open(path, O_RDONLY | O_CLOEXEC | O_NONBLOCK | O_NOCTTY)};
  if (file.fd < 0) return fail(why, "cannot open the peer's descriptor");
  char self[64];
  std::snprintf(self, sizeof(self), "/proc/self/fd/%d", file.fd);
  if (!names_arena(self, ref.token)) return fail(why, "not the advertised arena memfd");

  struct stat st {};
  if (::fstat(file.fd, &st) != 0 || st.st_uid != ::geteuid()) {
    return fail(why, "arena owned by another user");
  }
  const int seals = ::fcntl(file.fd, F_GET_SEALS);
  if (seals < 0 || (seals & (F_SEAL_SHRINK | F_SEAL_GROW)) != (F_SEAL_SHRINK | F_SEAL_GROW)) {
    return fail(why, "arena not sealed against resizing");
  }
  if (st.st_size < 0 || static_cast<std::uint64_t>(st.st_size) < ref.size) {
    return fail(why, "arena smaller than advertised");
  }
  void* base = ::mmap(nullptr, ref.size, PROT_READ, MAP_SHARED, file.fd, 0);
  if (base == MAP_FAILED) return fail(why, "cannot map the arena");
  return std::shared_ptr<PeerArena>(
      new PeerArena(static_cast<const std::byte*>(base), ref, std::move(returns)));
}

PeerArena::~PeerArena() {
  ::munmap(const_cast<std::byte*>(base_), ref_.size);
}

const PeerArena* PeerArena::lent_from(const PayloadBuffer& buf) {
  return dynamic_cast<const PeerArena*>(buf.lender());
}

PayloadBuffer PeerArena::view(const std::shared_ptr<PeerArena>& arena, std::uint64_t offset,
                              std::size_t bytes, std::uint64_t lease) {
  if (!arena->contains(offset, bytes)) return {};
  return PayloadBuffer::borrow(arena->base_ + offset, bytes, arena, lease);
}

void PeerArena::give_back(std::uint64_t lease) noexcept {
  if (returns_ != nullptr) returns_->returned(lease);
}

}  // namespace stampede::net
