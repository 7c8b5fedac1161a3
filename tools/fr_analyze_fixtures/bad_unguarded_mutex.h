// EXPECT: mutex-needs-guards
// A mutex member with no FR_GUARDED_BY anywhere in the file: the
// thread-safety analysis has nothing to check, so fr_analyze flags it.
#pragma once

#include <deque>
#include <mutex>

class UnguardedCounter {
 public:
  void bump() {
    std::lock_guard lock(mutex_);
    ++count_;
  }

 private:
  std::mutex mutex_;
  int count_ = 0;
};
