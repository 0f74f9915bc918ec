/// \file mutex.hpp
/// \brief Annotated, rank-checked mutex and RAII guards.
///
/// Every mutex in the runtime is a `util::Mutex` rather than a raw
/// `std::mutex` (enforced by `scripts/lint.sh`) for two reasons:
///
///  1. **Static checking.** `std::mutex` carries no capability attributes
///     under libstdc++, so Clang's `-Wthread-safety` analysis cannot track
///     it. `util::Mutex` is a `CAPABILITY` wrapper, which makes
///     `GUARDED_BY(mu_)` members and `REQUIRES(mu_)` helpers checkable.
///  2. **Dynamic checking.** When built with `ARU_LOCK_DEBUG=ON` (the
///     sanitizer presets do this), every Mutex carries a *rank* and the
///     acquiring thread validates the global lock hierarchy at runtime: a
///     thread may only acquire a mutex whose rank is strictly greater
///     than every mutex it already holds. Violations — including
///     same-rank nesting, e.g. locking one channel inside another —
///     abort with a diagnostic naming both locks. `assert_held()` turns
///     the static ASSERT_CAPABILITY annotation into a real ownership
///     check in this mode.
///
/// The hierarchy (see docs/ARCHITECTURE.md "Concurrency & validation"):
///
///   kLifecycle (Runtime) < kTelemetry (telemetry::Registry / Exporter)
///     < kNet (net::Transport / server registry) < kControl
///     (control::Supervisor fleet state) < kBuffer (Channel::mu_ /
///     Queue::mu_) < kPool (PayloadPool free lists) < kLeaf (log sink,
///     recorder node names, misc. leaves)
///
/// The trace plane holds no lock of its own: every thread records into
/// its own stats::Recorder shard, so a trace event is appended in place,
/// under a data-plane lock or not. `kPool` ranks above `kBuffer` because
/// an Item's destructor (which recycles its payload) may run under a
/// channel lock on the same-timestamp overwrite path.
#pragma once

#include <mutex>

#include "util/thread_annotations.hpp"

namespace stampede::util {

/// Position of a mutex in the global acquisition order. A thread may only
/// acquire strictly increasing ranks. Gaps leave room for new layers.
enum class LockRank : int {
  kLifecycle = 10,    ///< Runtime start/stop/join state.
  kTelemetry = 24,    ///< telemetry::Registry / Exporter. Below kBuffer:
                      ///< /status snapshot callbacks read channel
                      ///< occupancy (Channel::mu_) under the registry
                      ///< lock. Never nested with kNet on one thread.
  kNet = 25,          ///< net::Transport connection / server registry.
                      ///< Below kBuffer: the server skeleton performs
                      ///< channel puts/gets while serving a connection.
  kControl = 26,      ///< control::Supervisor fleet state. Above
                      ///< kTelemetry: the aggregated /metrics and fleet
                      ///< /status callbacks read worker state under the
                      ///< registry lock. Probe I/O and fork/exec happen
                      ///< outside it.
  kBuffer = 30,       ///< Channel/Queue data plane. Never nested.
  kPool = 35,         ///< PayloadPool frame-slab free lists. Above
                      ///< kBuffer: an Item's destructor (which recycles a
                      ///< frame-scale payload) may run under a channel lock
                      ///< on the same-timestamp overwrite path.
  kLeaf = 100,        ///< Leaves: log sink, recorder node names, the
                      ///< net release list and a transport's write lock,
                      ///< test-only locks.
};

/// Annotated standard mutex with optional runtime rank/ownership checks.
class CAPABILITY("mutex") Mutex {
 public:
  explicit Mutex(LockRank rank = LockRank::kLeaf, const char* name = "mutex")
#ifdef STAMPEDE_LOCK_DEBUG
      : rank_(rank), name_(name) {
  }
#else
  {
    (void)rank;
    (void)name;
  }
#endif

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    check_order();
    mu_.lock();
    on_acquired();
  }

  void unlock() RELEASE() {
    on_released();
    mu_.unlock();
  }

  bool try_lock() TRY_ACQUIRE(true) {
    // try_lock cannot deadlock, so it is exempt from the rank check.
    const bool ok = mu_.try_lock();
    if (ok) on_acquired();
    return ok;
  }

#ifdef STAMPEDE_LOCK_DEBUG
  /// Asserts (verifies at runtime, aborting on failure) that the calling
  /// thread holds this mutex. Use inside condition-variable predicates
  /// and other callbacks that run under the lock but that the static
  /// analysis cannot see into.
  void assert_held() const ASSERT_CAPABILITY(this);  // defined in mutex.cpp

 private:
  void check_order() const;
  void on_acquired();
  void on_released();

  LockRank rank_;
  const char* name_;
#else
  void assert_held() const ASSERT_CAPABILITY(this) {}

 private:
  void check_order() const {}
  void on_acquired() {}
  void on_released() {}
#endif

  std::mutex mu_;
};

/// `std::lock_guard` replacement the analysis understands.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// `std::unique_lock` replacement for condition-variable waits: satisfies
/// BasicLockable so `std::condition_variable_any` can release/reacquire
/// it around the wait (those internal calls happen in system headers,
/// outside the analysis), while the scoped acquire/release keeps the
/// surrounding function checkable.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~UniqueLock() RELEASE() { mu_.unlock(); }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  // BasicLockable surface for std::condition_variable_any.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  Mutex& mu_;
};

}  // namespace stampede::util
