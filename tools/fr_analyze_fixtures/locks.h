// EXPECT: clean
// Fixture-local stand-ins for the src/common/mutex.h wrappers: the
// analyzer keys on the spelled type names (Mutex / MutexLock), so these
// minimal shims give the lock-order fixtures real declarations for the
// symbol table to resolve without pulling repo headers into the
// fixture corpus.
#pragma once

namespace fx {

class Mutex {
 public:
  void lock() {}
  void unlock() {}
};

class MutexLock {
 public:
  explicit MutexLock(Mutex& m) : m_(m) { m_.lock(); }
  ~MutexLock() { m_.unlock(); }

 private:
  Mutex& m_;
};

inline Mutex g_lock_a;  // fr_analyze: allow(mutex-needs-guards)
inline Mutex g_lock_b;  // fr_analyze: allow(mutex-needs-guards)

}  // namespace fx
