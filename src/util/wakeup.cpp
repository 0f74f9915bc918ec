#include "util/wakeup.hpp"

#include <cerrno>
#include <system_error>

#include <sys/eventfd.h>
#include <unistd.h>

namespace stampede::util {

Wakeup::Wakeup() : fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (fd_ < 0) throw std::system_error(errno, std::generic_category(), "eventfd");
}

Wakeup::~Wakeup() { ::close(fd_); }

void Wakeup::signal() noexcept {
  // Fails only when the counter would overflow, which leaves it readable.
  ::eventfd_write(fd_, 1);
}

bool Wakeup::clear() noexcept {
  eventfd_t count = 0;
  return ::eventfd_read(fd_, &count) == 0;
}

}  // namespace stampede::util
