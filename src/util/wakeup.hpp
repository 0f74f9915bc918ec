/// \file wakeup.hpp
/// \brief A level-triggered wakeup one thread can `poll` beside a socket.
///
/// An eventfd: `signal()` makes the descriptor readable until `clear()`.
/// The net server's connection thread waits in one `poll` on its socket
/// and its Wakeup, which the served channel signals when the connection's
/// parked get can be answered (runtime/channel.hpp) and a stop request
/// signals too. Neither side ever blocks on the descriptor.
#pragma once

namespace stampede::util {

class Wakeup {
 public:
  /// Throws std::system_error when no eventfd can be made.
  Wakeup();
  ~Wakeup();

  Wakeup(const Wakeup&) = delete;
  Wakeup& operator=(const Wakeup&) = delete;

  /// Readable while signalled.
  int fd() const { return fd_; }

  /// Makes fd() readable. Never waits: safe from any thread, under any
  /// lock.
  void signal() noexcept;

  /// Makes fd() unreadable again, without waiting; true when it was
  /// signalled.
  bool clear() noexcept;

 private:
  int fd_;
};

}  // namespace stampede::util
