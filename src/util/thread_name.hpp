/// \file thread_name.hpp
/// \brief Names the calling thread, so per-thread CPU is readable from
///        `/proc/<pid>/task/*/comm` and `top -H`.
#pragma once

#include <cstddef>
#include <string_view>

namespace stampede::util {

/// Linux keeps at most this many bytes of a thread name.
inline constexpr std::size_t kMaxThreadName = 15;

/// Names the calling thread `name`, cut to kMaxThreadName bytes. Best
/// effort: a failure leaves the inherited name.
void set_thread_name(std::string_view name);

}  // namespace stampede::util
