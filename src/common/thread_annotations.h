#ifndef VQLIB_COMMON_THREAD_ANNOTATIONS_H_
#define VQLIB_COMMON_THREAD_ANNOTATIONS_H_

/// Clang Thread Safety Analysis attribute macros (the ABSL convention with a
/// VQLIB_ prefix). Under `clang++ -Wthread-safety` these turn the locking
/// contracts of the concurrent layer into compile-time checks: a field marked
/// VQLIB_GUARDED_BY(mu) cannot be touched without holding `mu`, a method
/// marked VQLIB_REQUIRES(mu) cannot be called without it, and the `analyze`
/// CMake preset promotes every violation to an error. On GCC (which has no
/// such analysis) every macro expands to nothing, so the annotations are free
/// documentation in the tier-1 build.
///
/// Conventions (see docs/static-analysis.md for the full catalog):
///  - every mutex-guarded field carries VQLIB_GUARDED_BY(<mutex>);
///  - private *Locked() helpers carry VQLIB_REQUIRES(<mutex>);
///  - public methods that take a lock internally may carry
///    VQLIB_EXCLUDES(<mutex>) where re-entry would self-deadlock;
///  - VQLIB_NO_THREAD_SAFETY_ANALYSIS is reserved for src/common/mutex.h —
///    the repo checker (tools/vqi_analyze) rejects it anywhere else.

#if defined(__clang__)
#define VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(x) __attribute__((x))
#else
#define VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(x)  // no-op outside clang
#endif

/// Marks a class as a lockable capability (e.g. vqi::Mutex).
#define VQLIB_CAPABILITY(x) VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define VQLIB_SCOPED_CAPABILITY \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(scoped_lockable)

/// The annotated field may only be accessed while holding `x`.
#define VQLIB_GUARDED_BY(x) VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(guarded_by(x))

/// The pointed-to data (not the pointer itself) is guarded by `x`.
#define VQLIB_PT_GUARDED_BY(x) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(pt_guarded_by(x))

/// Lock-ordering declarations (deadlock prevention).
#define VQLIB_ACQUIRED_BEFORE(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(acquired_before(__VA_ARGS__))
#define VQLIB_ACQUIRED_AFTER(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(acquired_after(__VA_ARGS__))

/// The annotated function must be called with the listed capabilities held.
#define VQLIB_REQUIRES(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(requires_capability(__VA_ARGS__))
#define VQLIB_REQUIRES_SHARED(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(requires_shared_capability(__VA_ARGS__))

/// The annotated function acquires/releases the listed capabilities.
#define VQLIB_ACQUIRE(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(acquire_capability(__VA_ARGS__))
#define VQLIB_ACQUIRE_SHARED(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(acquire_shared_capability(__VA_ARGS__))
#define VQLIB_RELEASE(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(release_capability(__VA_ARGS__))
#define VQLIB_RELEASE_SHARED(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(release_shared_capability(__VA_ARGS__))

/// The annotated function tries to acquire and returns `b` on success.
#define VQLIB_TRY_ACQUIRE(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(try_acquire_capability(__VA_ARGS__))

/// The annotated function must NOT be called with the listed capabilities
/// held (it acquires them itself; re-entry would self-deadlock).
#define VQLIB_EXCLUDES(...) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held (tells the analysis so).
#define VQLIB_ASSERT_CAPABILITY(x) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(assert_capability(x))

/// The annotated function returns a reference to the named capability.
#define VQLIB_RETURN_CAPABILITY(x) \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(lock_returned(x))

/// Escape hatch: the annotated function is not analyzed. Reserved for the
/// Mutex/CondVar wrappers themselves; tools/vqi_analyze rejects it elsewhere.
#define VQLIB_NO_THREAD_SAFETY_ANALYSIS \
  VQLIB_THREAD_ANNOTATION_ATTRIBUTE__(no_thread_safety_analysis)

#endif  // VQLIB_COMMON_THREAD_ANNOTATIONS_H_
