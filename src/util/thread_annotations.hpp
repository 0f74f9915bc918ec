/// \file thread_annotations.hpp
/// \brief Clang thread-safety-analysis attribute macros.
///
/// These expand to Clang's `-Wthread-safety` capability attributes so the
/// locking discipline of the runtime (which mutex guards which member,
/// which helper requires which lock) is machine-checked at compile time.
/// On compilers without the analysis (GCC, MSVC) every macro expands to
/// nothing, so annotated code stays portable.
///
/// The vocabulary follows the Clang documentation and Abseil's
/// `thread_annotations.h`:
///
///  * `CAPABILITY` / `SCOPED_CAPABILITY` — mark a mutex class / RAII
///    guard class as a capability the analysis can track.
///  * `GUARDED_BY(mu)` — a data member may only be read or written while
///    `mu` is held. `PT_GUARDED_BY` is the pointee variant.
///  * `REQUIRES(mu)` — a function may only be called with `mu` held
///    (the `_locked` suffix convention in this codebase).
///  * `ACQUIRE` / `RELEASE` / `TRY_ACQUIRE` — a function takes or drops
///    the capability.
///  * `EXCLUDES(mu)` — a function must NOT be called with `mu` held
///    (e.g. the net transport's entry points, which take its lock).
///  * `ASSERT_CAPABILITY(mu)` — a runtime assertion that `mu` is held;
///    tells the analysis the capability is available from that point on
///    (used inside condition-variable predicates, which the analysis
///    cannot otherwise connect to their call site).
///
/// See docs/ARCHITECTURE.md "Concurrency & validation" for the lock
/// hierarchy these annotations encode.
#pragma once

#if defined(__clang__)
#define STAMPEDE_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define STAMPEDE_THREAD_ANNOTATION__(x)  // no-op outside Clang
#endif

#define CAPABILITY(x) STAMPEDE_THREAD_ANNOTATION__(capability(x))

#define SCOPED_CAPABILITY STAMPEDE_THREAD_ANNOTATION__(scoped_lockable)

#define GUARDED_BY(x) STAMPEDE_THREAD_ANNOTATION__(guarded_by(x))

#define PT_GUARDED_BY(x) STAMPEDE_THREAD_ANNOTATION__(pt_guarded_by(x))

#define ACQUIRED_BEFORE(...) STAMPEDE_THREAD_ANNOTATION__(acquired_before(__VA_ARGS__))

#define ACQUIRED_AFTER(...) STAMPEDE_THREAD_ANNOTATION__(acquired_after(__VA_ARGS__))

#define REQUIRES(...) STAMPEDE_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))

#define REQUIRES_SHARED(...) \
  STAMPEDE_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))

#define ACQUIRE(...) STAMPEDE_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))

#define ACQUIRE_SHARED(...) STAMPEDE_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))

#define RELEASE(...) STAMPEDE_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))

#define RELEASE_SHARED(...) STAMPEDE_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))

#define RELEASE_GENERIC(...) STAMPEDE_THREAD_ANNOTATION__(release_generic_capability(__VA_ARGS__))

#define TRY_ACQUIRE(...) STAMPEDE_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))

#define TRY_ACQUIRE_SHARED(...) \
  STAMPEDE_THREAD_ANNOTATION__(try_acquire_shared_capability(__VA_ARGS__))

#define EXCLUDES(...) STAMPEDE_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))

#define ASSERT_CAPABILITY(x) STAMPEDE_THREAD_ANNOTATION__(assert_capability(x))

#define ASSERT_SHARED_CAPABILITY(x) STAMPEDE_THREAD_ANNOTATION__(assert_shared_capability(x))

#define RETURN_CAPABILITY(x) STAMPEDE_THREAD_ANNOTATION__(lock_returned(x))

#define NO_THREAD_SAFETY_ANALYSIS STAMPEDE_THREAD_ANNOTATION__(no_thread_safety_analysis)
