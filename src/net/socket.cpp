#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstddef>
#include <cstring>

namespace stampede::net {
namespace {

/// Remaining poll budget in whole milliseconds, rounded up so a positive
/// remainder never degenerates into a busy 0 ms poll loop.
int poll_millis(Nanos remaining) {
  if (remaining.count() <= 0) return 0;
  const std::int64_t ms = (remaining.count() + 999'999) / 1'000'000;
  return ms > 60'000 ? 60'000 : static_cast<int>(ms);
}

Nanos steady_now() {
  return std::chrono::duration_cast<Nanos>(
      std::chrono::steady_clock::now().time_since_epoch());
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void fill_err(std::string* err, const std::string& what) {
  if (err != nullptr) *err = what + ": " + std::strerror(errno);
}

/// Stream socket options applied to every connected/accepted TCP stream
/// (a Unix stream has no Nagle to turn off). TCP_NODELAY: frames are
/// already batched by the callers' send buffers, so Nagle only adds
/// latency. The kernel's default (auto-tuned) socket buffer sizes are
/// deliberately left alone — forcing window-sized SO_SNDBUF/SO_RCVBUF
/// measured *slower* on loopback (bufferbloat: the producer dumps its
/// whole put window into the kernel and then stalls in lockstep with the
/// consumer's drain).
void set_stream_options(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// The abstract Unix-socket name that a listener on `host`:`port` owns,
/// "@stampede:<host>:<port>" (abstract: sun_path starts with a NUL, so
/// no file is made and the name goes when its socket closes). Returns the
/// address length to pass to bind/connect.
socklen_t local_name(const std::string& host, std::uint16_t port, sockaddr_un& addr) {
  addr = {};
  addr.sun_family = AF_UNIX;
  const std::string name = "stampede:" + host + ":" + std::to_string(port);
  const std::size_t n = std::min(name.size(), sizeof(addr.sun_path) - 1);
  std::memcpy(addr.sun_path + 1, name.data(), n);
  return static_cast<socklen_t>(offsetof(sockaddr_un, sun_path) + 1 + n);
}

/// Connects to the Unix name of a same-host listener on `host`:`port`.
/// Invalid on failure; `*try_tcp` says whether TCP is worth trying
/// instead: nothing listens there, or whoever does runs as another user.
/// Blocking only for the connect itself: a Unix connect completes at once
/// unless the listener's backlog is full, and SO_SNDTIMEO bounds that
/// wait, after which it fails with EAGAIN.
Socket connect_local(const std::string& host, std::uint16_t port, Nanos timeout,
                     bool* try_tcp, std::string* err) {
  *try_tcp = false;
  Socket sock(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!sock.valid()) {
    fill_err(err, "socket");
    return {};
  }
  const std::int64_t us = std::max<std::int64_t>(timeout.count() / 1000, 1);
  const timeval tv{.tv_sec = us / 1'000'000, .tv_usec = us % 1'000'000};
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));

  sockaddr_un addr{};
  const socklen_t len = local_name(host, port, addr);
  int rc = 0;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), len);
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    *try_tcp = errno == ECONNREFUSED || errno == ENOENT;
    if (errno == EAGAIN) {
      if (err != nullptr) *err = "connect: timed out";
    } else {
      fill_err(err, "connect");
    }
    return {};
  }
  // An abstract name has no file permissions: any local process can bind
  // one that nobody holds (a remote host's, or 127.0.0.1's beside a
  // wildcard listener). Take the link only from a listener of this user
  // or root, checked before a byte is sent; anyone else is passed over
  // as if nothing listened there.
  ucred peer{};
  socklen_t peer_len = sizeof(peer);
  if (::getsockopt(sock.fd(), SOL_SOCKET, SO_PEERCRED, &peer, &peer_len) < 0 ||
      (peer.uid != ::geteuid() && peer.uid != 0)) {
    *try_tcp = true;
    return {};
  }
  if (!set_nonblocking(sock.fd())) {
    fill_err(err, "fcntl");
    return {};
  }
  return sock;
}

}  // namespace

const char* to_string(IoStatus s) {
  switch (s) {
    case IoStatus::kOk: return "ok";
    case IoStatus::kTimeout: return "timeout";
    case IoStatus::kClosed: return "closed";
    case IoStatus::kError: return "error";
  }
  return "unknown";
}

void Socket::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpStream> TcpStream::connect(const std::string& host, std::uint16_t port,
                                            Nanos timeout, std::string* err) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "inet_pton: invalid address '" + host + "'";
    return std::nullopt;
  }

  // Same host first: a listener on host:port owns this name. Nothing
  // bound there (ECONNREFUSED; ENOENT for completeness) means the peer is
  // remote, or older, or in another network namespace: fall back to TCP,
  // as for a name held by another user.
  {
    bool try_tcp = false;
    Socket local = connect_local(host, port, timeout, &try_tcp, err);
    if (local.valid()) return TcpStream(std::move(local));
    if (!try_tcp) return std::nullopt;
  }

  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    fill_err(err, "socket");
    return std::nullopt;
  }
  if (!set_nonblocking(sock.fd())) {
    fill_err(err, "fcntl");
    return std::nullopt;
  }
  set_stream_options(sock.fd());

  int rc = 0;
  do {
    rc = ::connect(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);

  if (rc < 0) {
    if (errno != EINPROGRESS) {
      fill_err(err, "connect");
      return std::nullopt;
    }
    // Nonblocking connect in flight: wait for writability, then read the
    // final outcome out of SO_ERROR.
    const Nanos deadline = steady_now() + timeout;
    for (;;) {
      pollfd pfd{sock.fd(), POLLOUT, 0};
      const int n = ::poll(&pfd, 1, poll_millis(deadline - steady_now()));
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        fill_err(err, "poll");
        return std::nullopt;
      }
      if (n == 0) {
        if (steady_now() >= deadline) {
          if (err != nullptr) *err = "connect: timed out";
          return std::nullopt;
        }
        continue;
      }
      break;
    }
    int so_error = 0;
    socklen_t len = sizeof(so_error);
    if (::getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &so_error, &len) < 0) {
      fill_err(err, "getsockopt");
      return std::nullopt;
    }
    if (so_error != 0) {
      if (err != nullptr) *err = std::string("connect: ") + std::strerror(so_error);
      return std::nullopt;
    }
  }
  return TcpStream(std::move(sock));
}

bool TcpStream::local() const {
  if (!sock_.valid()) return false;
  int domain = 0;
  socklen_t len = sizeof(domain);
  return ::getsockopt(sock_.fd(), SOL_SOCKET, SO_DOMAIN, &domain, &len) == 0 &&
         domain == AF_UNIX;
}

IoStatus TcpStream::send_all(std::span<const std::byte> data, Nanos timeout) {
  if (!sock_.valid()) return IoStatus::kError;
  const Nanos deadline = steady_now() + timeout;
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(sock_.fd(), data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const Nanos remaining = deadline - steady_now();
      if (remaining.count() <= 0) return IoStatus::kTimeout;
      pollfd pfd{sock_.fd(), POLLOUT, 0};
      const int p = ::poll(&pfd, 1, poll_millis(remaining));
      if (p < 0 && errno != EINTR) return IoStatus::kError;
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return IoStatus::kClosed;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus TcpStream::send_vec(std::span<const std::span<const std::byte>> bufs,
                             Nanos timeout) {
  if (!sock_.valid()) return IoStatus::kError;
  const Nanos deadline = steady_now() + timeout;

  // Cursor over the logical concatenation: first buffer not fully sent,
  // and how far into it we are. Rebuilding the iovec array per attempt is
  // cheap (2-3 entries in practice) and keeps partial-progress handling
  // trivially correct.
  std::size_t first = 0;
  std::size_t offset = 0;
  constexpr std::size_t kMaxIov = 8;
  for (;;) {
    while (first < bufs.size() && offset == bufs[first].size()) {
      ++first;
      offset = 0;
    }
    if (first == bufs.size()) return IoStatus::kOk;

    iovec iov[kMaxIov];
    std::size_t niov = 0;
    for (std::size_t i = first; i < bufs.size() && niov < kMaxIov; ++i) {
      const std::size_t skip = i == first ? offset : 0;
      if (bufs[i].size() == skip) continue;  // empty (or fully-sent head)
      // sendmsg never writes through iov_base; const_cast is the POSIX API
      // shape, not a mutation.
      iov[niov].iov_base =
          const_cast<std::byte*>(bufs[i].data() + skip);  // NOLINT
      iov[niov].iov_len = bufs[i].size() - skip;
      ++niov;
    }
    if (niov == 0) return IoStatus::kOk;

    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = niov;
    const ssize_t n = ::sendmsg(sock_.fd(), &msg, MSG_NOSIGNAL);
    if (n > 0) {
      // Advance the cursor across however many buffers `n` covered.
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        const std::size_t room = bufs[first].size() - offset;
        if (left < room) {
          offset += left;
          left = 0;
        } else {
          left -= room;
          ++first;
          offset = 0;
        }
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const Nanos remaining = deadline - steady_now();
      if (remaining.count() <= 0) return IoStatus::kTimeout;
      pollfd pfd{sock_.fd(), POLLOUT, 0};
      const int p = ::poll(&pfd, 1, poll_millis(remaining));
      if (p < 0 && errno != EINTR) return IoStatus::kError;
      continue;
    }
    if (n < 0 && (errno == EPIPE || errno == ECONNRESET)) return IoStatus::kClosed;
    return IoStatus::kError;
  }
}

IoStatus TcpStream::recv_exact(std::span<std::byte> out, Nanos timeout) {
  if (!sock_.valid()) return IoStatus::kError;
  const Nanos deadline = steady_now() + timeout;
  std::size_t got = 0;
  while (got < out.size()) {
    const ssize_t n = ::recv(sock_.fd(), out.data() + got, out.size() - got, 0);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const Nanos remaining = deadline - steady_now();
      if (remaining.count() <= 0) return IoStatus::kTimeout;
      pollfd pfd{sock_.fd(), POLLIN, 0};
      const int p = ::poll(&pfd, 1, poll_millis(remaining));
      if (p < 0 && errno != EINTR) return IoStatus::kError;
      continue;
    }
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
  return IoStatus::kOk;
}

IoStatus TcpStream::recv_some(std::span<std::byte> out, std::size_t* n_read,
                              Nanos timeout) {
  *n_read = 0;
  if (!sock_.valid() || out.empty()) return IoStatus::kError;
  const Nanos deadline = steady_now() + timeout;
  for (;;) {
    const ssize_t n = ::recv(sock_.fd(), out.data(), out.size(), 0);
    if (n > 0) {
      *n_read = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const Nanos remaining = deadline - steady_now();
      if (remaining.count() <= 0) return IoStatus::kTimeout;
      pollfd pfd{sock_.fd(), POLLIN, 0};
      const int p = ::poll(&pfd, 1, poll_millis(remaining));
      if (p < 0 && errno != EINTR) return IoStatus::kError;
      continue;
    }
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
}

IoStatus TcpStream::recv_vec(std::span<const std::span<std::byte>> bufs,
                             std::size_t* n_read, Nanos timeout) {
  *n_read = 0;
  if (!sock_.valid()) return IoStatus::kError;
  constexpr std::size_t kMaxIov = 8;
  iovec iov[kMaxIov];
  std::size_t niov = 0;
  for (const auto& b : bufs) {
    if (b.empty()) continue;
    if (niov == kMaxIov) break;
    iov[niov].iov_base = b.data();
    iov[niov].iov_len = b.size();
    ++niov;
  }
  if (niov == 0) return IoStatus::kError;
  const Nanos deadline = steady_now() + timeout;
  for (;;) {
    const ssize_t n = ::readv(sock_.fd(), iov, static_cast<int>(niov));
    if (n > 0) {
      *n_read = static_cast<std::size_t>(n);
      return IoStatus::kOk;
    }
    if (n == 0) return IoStatus::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      const Nanos remaining = deadline - steady_now();
      if (remaining.count() <= 0) return IoStatus::kTimeout;
      pollfd pfd{sock_.fd(), POLLIN, 0};
      const int p = ::poll(&pfd, 1, poll_millis(remaining));
      if (p < 0 && errno != EINTR) return IoStatus::kError;
      continue;
    }
    if (errno == ECONNRESET) return IoStatus::kClosed;
    return IoStatus::kError;
  }
}

bool SendBuffer::append(std::span<const std::byte> data) {
  if (buf_.size() - len_ < data.size()) return false;
  std::memcpy(buf_.data() + len_, data.data(), data.size());
  len_ += data.size();
  return true;
}

IoStatus SendBuffer::flush(TcpStream& stream, Nanos timeout) {
  if (len_ == 0) return IoStatus::kOk;
  const std::array<std::span<const std::byte>, 1> bufs = {
      std::span<const std::byte>{buf_.data(), len_}};
  const IoStatus st = stream.send_vec(bufs, timeout);
  len_ = 0;
  return st;
}

IoStatus SendBuffer::flush_with(TcpStream& stream, std::span<const std::byte> frame,
                                std::span<const std::byte> payload, Nanos timeout) {
  const std::array<std::span<const std::byte>, 3> bufs = {
      std::span<const std::byte>{buf_.data(), len_}, frame, payload};
  const IoStatus st = stream.send_vec(bufs, timeout);
  len_ = 0;
  return st;
}

void RecvBuffer::compact() {
  if (pos_ == 0) return;
  const std::size_t n = len_ - pos_;
  if (n > 0) std::memmove(buf_.data(), buf_.data() + pos_, n);
  pos_ = 0;
  len_ = n;
}

std::span<std::byte> RecvBuffer::tail() {
  if (buf_.size() - len_ < buf_.size() / 2) compact();
  return {buf_.data() + len_, buf_.size() - len_};
}

IoStatus RecvBuffer::fill(TcpStream& stream, Nanos timeout) {
  const std::span<std::byte> space = tail();
  if (space.empty()) return IoStatus::kError;  // caller decodes too little
  std::size_t n = 0;
  const IoStatus st = stream.recv_some(space, &n, timeout);
  if (st == IoStatus::kOk) len_ += n;
  return st;
}

bool TcpStream::peer_hup() const {
  if (!sock_.valid()) return true;
  pollfd pfd{sock_.fd(), POLLIN, 0};
  int n = 0;
  do {
    n = ::poll(&pfd, 1, 0);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) return false;
  if ((pfd.revents & (POLLERR | POLLNVAL)) != 0) return true;
  if ((pfd.revents & (POLLIN | POLLHUP)) != 0) {
    // Readable could be data or EOF: peek one byte to distinguish without
    // consuming anything. A Unix stream reports POLLHUP as soon as its
    // peer closes, while TCP reports only the FIN's POLLIN, so both peek:
    // what the peer sent before it left is still read first.
    char probe = 0;
    const ssize_t r = ::recv(sock_.fd(), &probe, 1, MSG_PEEK);
    return r == 0;
  }
  return false;
}

bool TcpStream::readable(Nanos timeout, int wake_fd) const {
  if (!sock_.valid()) return false;
  std::array<pollfd, 2> fds = {pollfd{sock_.fd(), POLLIN, 0}, pollfd{wake_fd, POLLIN, 0}};
  const nfds_t nfds = wake_fd >= 0 ? 2 : 1;
  int n = 0;
  do {
    n = ::poll(fds.data(), nfds, poll_millis(timeout));
  } while (n < 0 && errno == EINTR);
  return n > 0 && std::any_of(fds.begin(), fds.begin() + nfds, [](const pollfd& p) {
           return (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
         });
}

TcpStream TcpStream::duplicate() const {
  if (!sock_.valid()) return {};
  return TcpStream(Socket(::fcntl(sock_.fd(), F_DUPFD_CLOEXEC, 0)));
}

std::optional<TcpListener> TcpListener::listen(std::uint16_t port, std::string* err) {
  return listen("127.0.0.1", port, err);
}

std::optional<TcpListener> TcpListener::listen(const std::string& host,
                                               std::uint16_t port, std::string* err) {
  Socket sock(::socket(AF_INET, SOCK_STREAM, 0));
  if (!sock.valid()) {
    fill_err(err, "socket");
    return std::nullopt;
  }
  const int one = 1;
  ::setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!set_nonblocking(sock.fd())) {
    fill_err(err, "fcntl");
    return std::nullopt;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "inet_pton: invalid bind address '" + host + "'";
    return std::nullopt;
  }
  if (::bind(sock.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    fill_err(err, "bind");
    return std::nullopt;
  }
  if (::listen(sock.fd(), SOMAXCONN) < 0) {
    fill_err(err, "listen");
    return std::nullopt;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(sock.fd(), reinterpret_cast<sockaddr*>(&bound), &len) < 0) {
    fill_err(err, "getsockname");
    return std::nullopt;
  }
  const std::uint16_t bound_port = ntohs(bound.sin_port);

  // The same-host address. A name someone else holds fails the listen as
  // a taken port does, so no other process answers this server's
  // same-host peers (and a peer's connect passes over a name held by
  // another user).
  Socket local(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!local.valid()) {
    fill_err(err, "socket");
    return std::nullopt;
  }
  if (!set_nonblocking(local.fd())) {
    fill_err(err, "fcntl");
    return std::nullopt;
  }
  sockaddr_un name{};
  const socklen_t name_len = local_name(host, bound_port, name);
  if (::bind(local.fd(), reinterpret_cast<const sockaddr*>(&name), name_len) < 0) {
    fill_err(err, "bind @stampede:" + host + ":" + std::to_string(bound_port));
    return std::nullopt;
  }
  if (::listen(local.fd(), SOMAXCONN) < 0) {
    fill_err(err, "listen");
    return std::nullopt;
  }
  return TcpListener(std::move(sock), std::move(local), bound_port);
}

std::optional<TcpStream> TcpListener::accept(Nanos timeout) {
  if (!sock_.valid()) return std::nullopt;
  const Nanos deadline = steady_now() + timeout;
  for (;;) {
    // Either queue may hold the next connection.
    for (const Socket* s : {&local_, &sock_}) {
      const int fd = ::accept(s->fd(), nullptr, nullptr);
      if (fd >= 0) {
        Socket conn(fd);
        if (!set_nonblocking(conn.fd())) return std::nullopt;
        if (s == &sock_) set_stream_options(conn.fd());
        return TcpStream(std::move(conn));
      }
      if (errno != EINTR && errno != EAGAIN && errno != EWOULDBLOCK) return std::nullopt;
    }
    const Nanos remaining = deadline - steady_now();
    if (remaining.count() <= 0) return std::nullopt;
    std::array<pollfd, 2> fds = {pollfd{sock_.fd(), POLLIN, 0},
                                 pollfd{local_.fd(), POLLIN, 0}};
    const int p = ::poll(fds.data(), fds.size(), poll_millis(remaining));
    if (p < 0 && errno != EINTR) return std::nullopt;
  }
}

}  // namespace stampede::net
