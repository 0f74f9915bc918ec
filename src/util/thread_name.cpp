#include "util/thread_name.hpp"

#include <algorithm>
#include <cstring>

#include <pthread.h>

namespace stampede::util {

void set_thread_name(std::string_view name) {
  char buf[kMaxThreadName + 1];
  const std::size_t n = std::min(name.size(), kMaxThreadName);
  std::memcpy(buf, name.data(), n);
  buf[n] = '\0';
  ::pthread_setname_np(::pthread_self(), buf);
}

}  // namespace stampede::util
