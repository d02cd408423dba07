#ifndef VQLIB_COMMON_MUTEX_H_
#define VQLIB_COMMON_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

#include "common/thread_annotations.h"

namespace vqi {

class CondVar;

/// The library's mutex: a thin wrapper over std::mutex that carries the
/// Clang Thread Safety Analysis capability attribute, so locking contracts
/// are checked at compile time under the `analyze` preset (see
/// docs/static-analysis.md). This file is the only place raw std::mutex /
/// std::lock_guard may appear — tools/vqi_analyze enforces that everywhere
/// else uses vqi::Mutex / vqi::MutexLock, which is what makes the analysis
/// coverage total rather than best-effort.
class VQLIB_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() VQLIB_ACQUIRE() { mu_.lock(); }
  void Unlock() VQLIB_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a vqi::Mutex; the annotated equivalent of std::lock_guard.
/// Takes a pointer (ABSL convention) so call sites read
/// `MutexLock lock(&mutex_);`.
class VQLIB_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) VQLIB_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() VQLIB_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with vqi::Mutex. Wait() atomically releases the
/// mutex, blocks, and reacquires before returning — annotated
/// VQLIB_REQUIRES(mu) because the caller must hold the lock across the call.
/// There is deliberately no predicate overload: callers write the standard
///
///   MutexLock lock(&mutex_);
///   while (!condition) cv_.Wait(mutex_);
///
/// loop themselves, which keeps the guarded-field accesses in the condition
/// inside the caller's analyzed scope (a predicate lambda would need its own
/// REQUIRES annotation that the analysis cannot match against the Wait
/// parameter).
///
/// The wait-in-loop invariant is machine-checked: tools/vqi_analyze
/// (`ctest -R vqi_analyze_condvar`) flags any Wait/WaitFor on a declared
/// CondVar that is not on a `while`/`for`/`do` line or nested inside one,
/// across src/ and tests/.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Caller must hold `mu`; it is released while blocked and held again when
  /// Wait returns. Spurious wakeups are possible — always wait in a loop.
  void Wait(Mutex& mu) VQLIB_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait, then
    // release ownership back to the caller's MutexLock without unlocking.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  /// Timed variant of Wait(): blocks for at most `timeout_ms` milliseconds.
  /// Returns false on timeout, true otherwise (notification or spurious
  /// wakeup — re-check the predicate either way). The mutex is held again
  /// when WaitFor returns, in both cases.
  bool WaitFor(Mutex& mu, double timeout_ms) VQLIB_REQUIRES(mu) {
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    const auto status = cv_.wait_for(
        native, std::chrono::duration<double, std::milli>(timeout_ms));
    native.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vqi

#endif  // VQLIB_COMMON_MUTEX_H_
