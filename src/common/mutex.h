// Annotated mutex / condition-variable wrappers for the thread-safety
// analysis (see common/annotations.h).
//
// libstdc++ does not declare std::mutex as a Clang capability, so
// FR_GUARDED_BY(some_std_mutex) would not type-check. These thin
// wrappers carry the capability attributes and forward to the standard
// primitives; under GCC they compile to the exact same code.
//
// Usage pattern the analysis can verify end to end:
//
//   Mutex mutex_;
//   std::deque<T> items_ FR_GUARDED_BY(mutex_);
//   CondVar not_empty_;
//
//   MutexLock lock(mutex_);
//   while (items_.empty()) not_empty_.wait(lock);
//   use(items_.front());
//
// Condition waits are written as explicit while-loops (not the
// predicate-lambda overloads): a lambda body is analyzed as its own
// unannotated function, so guarded reads inside it would be flagged,
// while the loop form keeps every guarded access in the annotated
// caller. CondVar wraps std::condition_variable_any because the wait
// has to relock through the annotated MutexLock, not a raw
// std::unique_lock<std::mutex>.
//
// Lock order is checked twice: statically by fr_analyze's
// lock-order-cycle passes over every MutexLock nesting, and dynamically
// by ThreadSanitizer's lock-order-inversion detector in the tsan preset
// (tests/concurrency/lock_order_control.cpp proves it fires through
// these wrappers).
#pragma once

#include <condition_variable>
#include <mutex>

#include "common/annotations.h"

namespace faultyrank {

/// Exclusive capability wrapping std::mutex.
class FR_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() FR_ACQUIRE() { m_.lock(); }
  void unlock() FR_RELEASE() { m_.unlock(); }

 private:
  std::mutex m_;
};

/// Scoped exclusive lock. Exposes lock()/unlock() so condition waits
/// and drop-the-lock-run-the-task sections stay analyzable within one
/// function body; the destructor releases only if still held.
class FR_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mutex) FR_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  ~MutexLock() FR_RELEASE() {
    if (held_) mutex_.unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void lock() FR_ACQUIRE() {
    mutex_.lock();
    held_ = true;
  }
  void unlock() FR_RELEASE() {
    mutex_.unlock();
    held_ = false;
  }

 private:
  Mutex& mutex_;
  bool held_ = true;
};

/// Condition variable usable with MutexLock. wait() must be called
/// with the lock held; it returns with the lock held (the transient
/// release inside std::condition_variable_any is invisible to the
/// analysis, matching the caller-visible contract).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(MutexLock& lock) { cv_.wait(lock); }
  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace faultyrank
