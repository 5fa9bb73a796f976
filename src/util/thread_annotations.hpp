// Clang thread-safety annotation macros (lock-discipline static analysis).
//
// These wrap clang's capability analysis attributes so cross-thread
// surfaces can declare, in the type system, which lock guards which
// state. The `thread-safety` CMake preset builds the tree with
// `-Wthread-safety -Werror`, turning a forgotten lock into a compile
// error instead of a TSan report three PRs later. On compilers without
// the attributes (gcc, msvc) every macro expands to nothing, so the
// annotations are free documentation there.
//
// Vocabulary (see util/mutex.hpp for the annotated lock types):
//
//   ECGRID_CAPABILITY("mutex")   class is a lockable capability
//   ECGRID_SCOPED_CAPABILITY     RAII type that acquires/releases one
//   ECGRID_GUARDED_BY(mu)        field may only be touched holding mu
//   ECGRID_PT_GUARDED_BY(mu)     pointee may only be touched holding mu
//   ECGRID_REQUIRES(mu)          caller must already hold mu
//   ECGRID_ACQUIRE(mu)/ECGRID_RELEASE(mu)
//                                function takes / drops the lock
//   ECGRID_EXCLUDES(mu)          caller must NOT hold mu (deadlock guard)
//   ECGRID_ACQUIRED_BEFORE/AFTER declare lock ordering
//   ECGRID_RETURN_CAPABILITY(mu) accessor returns a reference to mu
//   ECGRID_NO_THREAD_SAFETY_ANALYSIS
//                                opt a function out (justify in a comment)
//
// The sibling ownership-domain macros (which host, scenario or process
// owns an object, rather than which lock guards a field) live in
// util/ownership.hpp.
#pragma once

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define ECGRID_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef ECGRID_THREAD_ANNOTATION
#define ECGRID_THREAD_ANNOTATION(x)  // no-op off clang
#endif

#define ECGRID_CAPABILITY(name) ECGRID_THREAD_ANNOTATION(capability(name))
#define ECGRID_SCOPED_CAPABILITY ECGRID_THREAD_ANNOTATION(scoped_lockable)
#define ECGRID_GUARDED_BY(mu) ECGRID_THREAD_ANNOTATION(guarded_by(mu))
#define ECGRID_PT_GUARDED_BY(mu) ECGRID_THREAD_ANNOTATION(pt_guarded_by(mu))
#define ECGRID_REQUIRES(...) \
  ECGRID_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ECGRID_REQUIRES_SHARED(...) \
  ECGRID_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))
#define ECGRID_ACQUIRE(...) \
  ECGRID_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define ECGRID_ACQUIRE_SHARED(...) \
  ECGRID_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))
#define ECGRID_RELEASE(...) \
  ECGRID_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define ECGRID_RELEASE_SHARED(...) \
  ECGRID_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))
#define ECGRID_TRY_ACQUIRE(...) \
  ECGRID_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define ECGRID_EXCLUDES(...) \
  ECGRID_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ECGRID_ACQUIRED_BEFORE(...) \
  ECGRID_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ECGRID_ACQUIRED_AFTER(...) \
  ECGRID_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define ECGRID_RETURN_CAPABILITY(x) \
  ECGRID_THREAD_ANNOTATION(lock_returned(x))
#define ECGRID_NO_THREAD_SAFETY_ANALYSIS \
  ECGRID_THREAD_ANNOTATION(no_thread_safety_analysis)
